//! Instruction execution: the fetch/execute loop and operand evaluation.
//!
//! [`Machine::run_steps`] is equivalent to `n` single steps, where a single
//! step ([`Machine::step`]) executes one instruction on the thread whose
//! `(core clock, thread index)` key is lowest. How it gets there is
//! deliberate:
//!
//! * Fetch borrows one pre-decoded `(instruction, PC)` pair from the flat
//!   [`DecodedProgram`](laser_isa::decoded::DecodedProgram) arrays — no PC
//!   arithmetic; only an instruction that touches memory is copied out, to
//!   release the borrow on the program before it mutates the machine.
//! * Instructions split in two classes. *Register-only* ones (`Mov`, `Alu`,
//!   `Cmp`, `Pause`, `Nop`, `Jump`, `Branch`) read and write nothing but
//!   their own thread's registers and position and their own core's clock;
//!   no other core can observe when they ran. *Active* ones (`Load`, `Store`,
//!   `MemRmw`, `AtomicRmw`, `Fence`, `Halt`) touch memory, the coherence
//!   directory, the statistics, the HITM queue or the scheduler's keys — and
//!   are where an attached hook is called. With a hook attached, a `Jump` or
//!   `Branch` into a block whose entry the hook acts on (an *active block
//!   entry*, see below) is active too. Register-only semantics live in
//!   [`Machine::exec_register_only`] and [`Machine::next_block`], once, for
//!   both paths below.
//! * **Horizon-bounded run-ahead over parked cores**: a *round* picks a
//!   clock horizon `H` and executes exactly the instructions whose pre-clock
//!   is `< H` — a prefix of the per-instruction order, which is sorted by
//!   key.
//!   - *The invariant.* Inside a round every core in the
//!     [`CoreSched`](super::sched::CoreSched) heap is **parked**: its clock
//!     is the pre-clock of its front thread's next active instruction, or is
//!     `≥ H`. A core's key is then not a lower bound on the key of its next
//!     active instruction but exactly that key.
//!   - *What a round does first.* It parks every live core: the front thread
//!     retires its register-only instructions in a tight local loop, no
//!     scheduler involved, up to its next active instruction or the horizon,
//!     and the core is repositioned — one core at a time, because a
//!     sift-down repairs one raised key. Nothing is assumed from the last
//!     round: quanta end mid-thread and external charges land in between
//!     (a charge shifts a parked core's pre-clock with its clock, so it
//!     breaks nothing either). A core that is already parked returns at once.
//!   - *One decision per active instruction.* The loop then takes the heap's
//!     root, stops if its clock is `≥ H` (the root is the minimum), executes
//!     its active instruction, runs the same thread on to its next active
//!     one (or `H`) and repositions the core **once**. That is enough: the
//!     active instruction ran at the root, whose key was the smallest key of
//!     any pending active instruction, so active instructions execute in the
//!     per-instruction order; the register-only run in between is invisible
//!     to the other cores whenever it happens; and after it the core is
//!     parked again, so the single sift-down leaves every key in the heap
//!     exact. No second visit to find out that a core is no longer first.
//!   - *What a halt does.* `Halt` moves the core's cursor to the thread
//!     queued behind, which has not been run up to its first active
//!     instruction: the core is in the heap (the halt re-sank it) but not
//!     parked. The loop parks it — the new front thread's register-only
//!     prefix, then a reposition — before it takes the next root. A core
//!     whose last thread halted has left the heap.
//!   - *The budget.* `H` is `min_clock + (min(left, 2^14) / live_cores) ×
//!     floor`, where the *round floor* `floor ≥ 1` is the least any
//!     instruction costs, so each live core retires at most that many
//!     instructions: a round cannot overshoot the `left` steps still owed,
//!     and retires at most 2^14 ([`MAX_ROUND_STEPS`]) however long the run.
//!     Rounds repeat until fewer than 8 steps per live core are owed; that
//!     short tail is plain `step()`.
//!   - *`Nop` runs retire at once.* Each decoded block records how many
//!     consecutive `Nop`s start at each instruction
//!     ([`DecodedBlock::nop_run`](laser_isa::decoded::DecodedBlock::nop_run)).
//!     The register-only loop retires a run's first `min(run, ⌈(H −
//!     clock) / alu⌉)` in one iteration: exactly the `Nop`s single steps
//!     would retire before the clock reaches `H`, at the same cost each, so
//!     the clock, the step count and the thread's position end where they
//!     would. `step()` still retires one `Nop` per call, which is what
//!     `run_steps_reference` holds this to.
//!   - *Round boundaries drain.* Between two rounds the machine has executed
//!     a prefix of the per-instruction order, so its HITM queue holds exactly
//!     the events that prefix generated. [`Machine::run_draining`] hands the
//!     queue over there once it holds [`DRAIN_BATCH_EVENTS`]: a run to
//!     completion then holds at most that many events plus one round's,
//!     delivered in the order the run generated them.
//! * **A hooked machine runs ahead inside what its hook declares** (the
//!   run-ahead contract of [`ExecHook`](crate::hook::ExecHook), read once
//!   when the hook is attached).
//!   - *The round floor* is the lower of the machine's own floor and the
//!     hook's [`cost_floor`](crate::hook::ExecHook::cost_floor): the least it
//!     charges for an operation it services. Everything else the hook is
//!     called for already costs a fence, an L1 hit or a branch on top of
//!     what it adds. A hook that declares nothing has floor 0, which bounds
//!     no round: every instruction is then dispatched in order through
//!     `step()`, as for any hook before the contract existed.
//!   - *Active block entries.* The entries the hook did not declare inert
//!     must reach it in the global order, at the right
//!     [`HookCtx::now`](crate::hook::HookCtx::now). The register-only loop
//!     computes a terminator's target and stops *in front of the terminator*
//!     when that entry is active: the core is parked at the entry's
//!     pre-clock. The round loop takes the transition at the root — the
//!     branch cost plus whatever the hook charges — like any other active
//!     instruction. Inert entries are not dispatched at all; the flags sit
//!     in a per-block table, so the inner loop pays an index on block
//!     transitions and never a `dyn` call.
//!   - *Why it is exact.* The hook is called for exactly the operations
//!     `step()` calls it for, less the entries it declared to be no-ops, in
//!     the same `(pre-clock, thread index)` order and with the same `now`;
//!     what runs ahead is what never reached it.
//!   - *Without a hook* every dispatch site is a single branch
//!     (`self.hook.is_attached()`) and the table is empty, so the lookup on
//!     a block transition is one compare against its length; hook argument
//!     marshalling only happens on the hooked path.

use laser_isa::inst::{Inst, MemAddr, Operand, RmwOp, Terminator, NUM_REGS};
use laser_isa::program::{BlockId, Pc};

use crate::addr::Addr;
use crate::event::{HitmEvent, MemAccessKind};
use crate::hook::{HookAction, MemOp};
use crate::machine::{Machine, MachineError, RunResult, RunStatus};
use crate::timing::HotLatency;

/// Rounds of run-ahead stop once fewer than this many steps per live core are
/// owed: a round's fixed cost no longer pays for itself, and the remaining
/// steps are dispatched one by one.
pub(super) const MIN_ROUND_STEPS_PER_CORE: u64 = 8;

/// The most instructions one round retires: a run to completion crosses a
/// round boundary at least once per this many instructions, and each
/// crossing costs one parking pass over the cores. A session's quantum is shorter than this, so only
/// whole runs see the bound.
const MAX_ROUND_STEPS: u64 = 1 << 14;

/// How many HITM events [`Machine::run_draining`] lets queue up before it
/// hands them over at the next round boundary.
pub(crate) const DRAIN_BATCH_EVENTS: usize = 2048;

/// Counts of the round loop's work, kept in test builds for the test that
/// holds it to one scheduler visit per active instruction.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RoundTrace {
    /// Rounds started.
    pub(crate) rounds: u64,
    /// Times the round loop took the heap's root, the visit that ends each
    /// round included.
    pub(crate) visits: u64,
    /// The most HITM events one round queued.
    pub(crate) most_events: usize,
    /// Runs of two or more `Nop`s the register-only loop retired at once.
    pub(crate) nop_runs: u64,
}

impl Machine {
    /// Run at most `n` instructions: equivalent to `n` single steps, each
    /// executing one instruction of the thread whose `(core clock, thread
    /// index)` key is lowest, stopping early once every thread has halted.
    /// The machine state afterwards — clocks, statistics, pending HITM
    /// events, every thread's registers and position — is the
    /// per-instruction one, whatever `n` is. Returns [`RunStatus::Done`]
    /// once all threads have halted.
    pub fn run_steps(&mut self, n: u64) -> RunStatus {
        let tail = self.run_ahead(n, |_| {});
        for _ in 0..tail {
            if !self.step() {
                break;
            }
        }
        self.status()
    }

    /// The definition [`Machine::run_steps`] is held to: `n` single steps.
    /// The differential tests drive one machine through each.
    #[cfg(test)]
    pub(crate) fn run_steps_reference(&mut self, n: u64) -> RunStatus {
        for _ in 0..n {
            if !self.step() {
                return RunStatus::Done;
            }
        }
        self.status()
    }

    fn status(&self) -> RunStatus {
        if self.is_done() {
            RunStatus::Done
        } else {
            RunStatus::Running
        }
    }

    /// Run until every thread halts. Every HITM event of the run stays
    /// queued for [`Machine::take_hitm_events`], which makes this the path
    /// of tests and of runs small enough to hold whole; a run of any size
    /// that reads its events as they come, or not at all, is
    /// [`Machine::run_draining`].
    ///
    /// # Errors
    /// Returns [`MachineError::MaxStepsExceeded`] if the configured step
    /// budget runs out first; the machine has then executed exactly
    /// `max_steps` instructions.
    pub fn run_to_completion(&mut self) -> Result<RunResult, MachineError> {
        let budget = self.config.max_steps.saturating_sub(self.steps);
        let status = self.run_steps(budget);
        self.completion(status)
    }

    /// [`Machine::run_to_completion`] for a caller that never holds the
    /// whole run's HITM events: at each run-ahead round boundary where the
    /// queue holds at least 2,048 events, hand the queue to `sink` and clear
    /// it; hand over the rest at the end. A batch is then at most 2,048
    /// events plus what one round (at most 2^14 instructions) queued. The
    /// batches,
    /// concatenated, are the events `run_to_completion` would have queued,
    /// in the same order, and the result is the same field for field. A sink
    /// that ignores its argument discards the events as the run goes.
    ///
    /// # Errors
    /// As [`Machine::run_to_completion`]: [`MachineError::MaxStepsExceeded`]
    /// after exactly `max_steps` instructions, every event generated until
    /// then handed over.
    pub fn run_draining(
        &mut self,
        sink: impl FnMut(&[HitmEvent]),
    ) -> Result<RunResult, MachineError> {
        self.run_draining_at(DRAIN_BATCH_EVENTS, sink)
    }

    /// [`Machine::run_draining`], draining once the queue holds `batch`
    /// events.
    pub(crate) fn run_draining_at(
        &mut self,
        batch: usize,
        mut sink: impl FnMut(&[HitmEvent]),
    ) -> Result<RunResult, MachineError> {
        let mut drain = |queue: &mut Vec<HitmEvent>, at_least: usize| {
            if !queue.is_empty() && queue.len() >= at_least {
                sink(queue);
                queue.clear();
            }
        };
        let budget = self.config.max_steps.saturating_sub(self.steps);
        let tail = self.run_ahead(budget, |queue| drain(queue, batch));
        // The tail is plain steps, each a round of one instruction.
        for _ in 0..tail {
            if !self.step() {
                break;
            }
            drain(&mut self.inner.pending_hitms, batch);
        }
        drain(&mut self.inner.pending_hitms, 0);
        let status = self.status();
        self.completion(status)
    }

    /// The outcome of a run to completion that stopped with `status`.
    fn completion(&self, status: RunStatus) -> Result<RunResult, MachineError> {
        match status {
            RunStatus::Done => Ok(self.result()),
            RunStatus::Running => Err(MachineError::MaxStepsExceeded {
                steps: self.config.max_steps,
            }),
        }
    }

    /// Execute whole run-ahead rounds out of a budget of `left` steps and
    /// return the steps still owed (fewer than
    /// [`MIN_ROUND_STEPS_PER_CORE`] per live core, anything once every
    /// thread has halted, or all of them under a hook with no cost floor).
    /// `boundary` is shown the HITM queue after every round.
    fn run_ahead(&mut self, mut left: u64, mut boundary: impl FnMut(&mut Vec<HitmEvent>)) -> u64 {
        // The round floor: the least any instruction costs, whether the
        // machine or the attached hook services it. A hook that promises
        // nothing (floor 0) gives no horizon to run up to: every instruction
        // is then dispatched in order.
        let floor = self.hot.floor.min(self.hook.cost_floor);
        if floor == 0 {
            return left;
        }
        while let Some(root) = self.sched.root() {
            let live = self.sched.live_cores() as u64;
            if left < MIN_ROUND_STEPS_PER_CORE * live {
                break;
            }
            // Every instruction costs at least `floor`, so a core starting at
            // or above the minimum clock retires at most `span`
            // instructions before its clock reaches the horizon. Saturation
            // only lowers the horizon.
            let span = left.min(MAX_ROUND_STEPS) / live;
            let horizon = self.core_cycles[root].saturating_add(span.saturating_mul(floor));
            #[cfg(test)]
            let queued = self.inner.pending_hitms.len();
            let done = self.run_to_horizon(horizon);
            #[cfg(test)]
            {
                let trace = &mut self.round_trace;
                trace.most_events = trace
                    .most_events
                    .max(self.inner.pending_hitms.len() - queued);
            }
            debug_assert!(
                done <= left.min(MAX_ROUND_STEPS),
                "a round overshot its budget"
            );
            left -= done;
            boundary(&mut self.inner.pending_hitms);
        }
        left
    }

    /// One round: execute every instruction whose pre-clock is below
    /// `horizon`, active ones in `(core clock, thread index)` order, and
    /// return how many that was. Every core in the heap is kept *parked* (see
    /// the module docs), so each active instruction takes one visit: execute
    /// it at the root, run the same thread on to its next one, reposition the
    /// core once.
    fn run_to_horizon(&mut self, horizon: u64) -> u64 {
        let before = self.steps;
        #[cfg(test)]
        {
            self.round_trace.rounds += 1;
        }
        // Quanta end mid-thread and external charges land between them, so
        // nothing is assumed parked at round start. One core at a time: a
        // sift-down repairs one raised key.
        for core in 0..self.core_cycles.len() {
            if let Some(ti) = self.sched.live_front(core) {
                self.park(ti, core, horizon);
            }
        }
        // The root has the lowest clock: once it reaches the horizon, every
        // core has.
        while let Some(core) = self.sched.root() {
            #[cfg(test)]
            {
                self.round_trace.visits += 1;
            }
            let now = self.core_cycles[core];
            if now >= horizon {
                break;
            }
            let ti = self.sched.front(core);
            self.steps += 1;
            self.inner.stats.instructions += 1;
            let thread = &self.threads[ti];
            let blk = self.decoded.block(thread.block);
            let cost = match blk.insts().get(thread.idx) {
                Some(&fetched) => {
                    let cost = self.exec_active(ti, core, now, fetched.inst, fetched.pc);
                    self.threads[ti].idx += 1;
                    cost
                }
                None => match Self::next_block(&thread.regs, blk.term()) {
                    // The register-only loop stops in front of a jump or
                    // branch only when it enters a block the hook acts on.
                    Some(target) => {
                        debug_assert!(
                            self.hook.active_entry.get(target.0 as usize) == Some(&true),
                            "a parked core below the horizon sits at an active instruction"
                        );
                        let thread = &mut self.threads[ti];
                        thread.block = target;
                        thread.idx = 0;
                        self.hot.branch + self.hook_block_entry(core, now, target)
                    }
                    None => {
                        // The halt moved the core's cursor: its new front
                        // thread has not run up to its first active
                        // instruction yet.
                        if let Some(next) = self.halt(ti, core, now) {
                            self.park(next, core, horizon);
                        }
                        continue;
                    }
                },
            };
            self.core_cycles[core] += cost;
            self.run_register_only(ti, core, horizon);
            self.sched.reposition(&self.core_cycles, core);
        }
        self.steps - before
    }

    /// Park `core`: run its front thread `ti` up to its next active
    /// instruction (or the horizon) and restore the core's heap position.
    /// The register-only instructions this retires are unobservable by other
    /// cores, so the core need not be the root. A parked core returns at
    /// once.
    fn park(&mut self, ti: usize, core: usize, horizon: u64) {
        let start = self.core_cycles[core];
        self.run_register_only(ti, core, horizon);
        if self.core_cycles[core] != start {
            self.sched.reposition(&self.core_cycles, core);
        }
    }

    /// The run-ahead inner loop: retire register-only instructions of thread
    /// `ti` (the front thread of `core`) while the core's clock is below
    /// `horizon`, with no scheduler maintenance — the caller repositions the
    /// core once. It stops in front of an active instruction (a terminator
    /// into an active block entry included) or at the horizon, which is to
    /// say it leaves the core parked.
    #[inline(always)]
    fn run_register_only(&mut self, ti: usize, core: usize, horizon: u64) {
        let lat = self.hot;
        let active_entry = self.hook.active_entry.as_slice();
        let thread = &mut self.threads[ti];
        let mut blk = self.decoded.block(thread.block);
        let mut idx = thread.idx;
        let mut clock = self.core_cycles[core];
        let mut retired = 0u64;
        while clock < horizon {
            let cost = match blk.insts().get(idx) {
                Some(fetched) if matches!(fetched.inst, Inst::Nop) => {
                    // A run of `Nop`s retires at once: as many of them as
                    // single steps would retire before the horizon.
                    let run = u64::from(blk.nop_run(idx));
                    let n = run.min((horizon - clock).div_ceil(lat.alu));
                    #[cfg(test)]
                    if n > 1 {
                        self.round_trace.nop_runs += 1;
                    }
                    idx += n as usize;
                    retired += n - 1;
                    n * lat.alu
                }
                Some(fetched) => {
                    let Some(cost) = Self::exec_register_only(&mut thread.regs, &fetched.inst, lat)
                    else {
                        break;
                    };
                    idx += 1;
                    cost
                }
                None => {
                    let Some(target) = Self::next_block(&thread.regs, blk.term()) else {
                        break;
                    };
                    // An entry the hook acts on is dispatched in order, at
                    // the root: stop in front of the terminator.
                    if active_entry.get(target.0 as usize) == Some(&true) {
                        break;
                    }
                    thread.block = target;
                    blk = self.decoded.block(target);
                    idx = 0;
                    lat.branch
                }
            };
            clock += cost;
            retired += 1;
        }
        thread.idx = idx;
        self.core_cycles[core] = clock;
        self.steps += retired;
        self.inner.stats.instructions += retired;
    }

    pub(crate) fn eval_operand(regs: &[u64; NUM_REGS], op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    pub(crate) fn eval_addr(regs: &[u64; NUM_REGS], addr: &MemAddr) -> Addr {
        let mut a = regs[addr.base.0 as usize];
        if let Some((idx, scale)) = addr.index {
            a = a.wrapping_add(regs[idx.0 as usize].wrapping_mul(scale as u64));
        }
        a.wrapping_add(addr.offset as u64)
    }

    pub(crate) fn mask(value: u64, size: u8) -> u64 {
        if size >= 8 {
            value
        } else {
            value & ((1u64 << (8 * size)) - 1)
        }
    }

    /// The semantics of the register-only instructions, shared by `step()`
    /// and the run-ahead loop: execute `inst` on `regs` and return its cost,
    /// or `None` (nothing executed) if it is an active instruction.
    #[inline(always)]
    fn exec_register_only(regs: &mut [u64; NUM_REGS], inst: &Inst, lat: HotLatency) -> Option<u64> {
        match *inst {
            Inst::Mov { dst, src } => {
                regs[dst.0 as usize] = Self::eval_operand(regs, src);
                Some(lat.alu)
            }
            Inst::Alu { op, dst, lhs, rhs } => {
                let l = regs[lhs.0 as usize];
                let r = Self::eval_operand(regs, rhs);
                regs[dst.0 as usize] = op.apply(l, r);
                Some(lat.alu)
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                let l = regs[lhs.0 as usize];
                let r = Self::eval_operand(regs, rhs);
                regs[dst.0 as usize] = op.apply(l, r);
                Some(lat.alu)
            }
            Inst::Pause => Some(lat.pause),
            Inst::Nop => Some(lat.alu),
            Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::AtomicRmw { .. }
            | Inst::MemRmw { .. }
            | Inst::Fence => None,
        }
    }

    /// Where a terminator sends its thread: the successor block of a jump or
    /// branch (register-only), or `None` for a halt (active). Shared by
    /// `step()` and the run-ahead loop.
    #[inline(always)]
    fn next_block(regs: &[u64; NUM_REGS], term: Terminator) -> Option<BlockId> {
        match term {
            Terminator::Jump(target) => Some(target),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => Some(if regs[cond.0 as usize] != 0 {
                if_true
            } else {
                if_false
            }),
            Terminator::Halt => None,
        }
    }

    /// Execute one instruction on the thread whose core clock is lowest.
    /// Returns false when every thread has halted.
    pub(crate) fn step(&mut self) -> bool {
        let Some(ti) = self.sched.pick() else {
            return false;
        };
        self.exec_one(ti);
        !self.is_done()
    }

    /// Execute the next instruction of the scheduled thread `ti` — the front
    /// thread of the heap's root core — charge its cost and restore the
    /// scheduler.
    fn exec_one(&mut self, ti: usize) {
        self.steps += 1;
        self.inner.stats.instructions += 1;

        let lat = self.hot;
        let thread = &mut self.threads[ti];
        let core = thread.core;
        let now = self.core_cycles[core];
        let blk = self.decoded.block(thread.block);
        let cost = match blk.insts().get(thread.idx) {
            Some(fetched) => {
                let cost = match Self::exec_register_only(&mut thread.regs, &fetched.inst, lat) {
                    Some(cost) => cost,
                    None => {
                        // Everything decoded is `Copy`: copying the entry out
                        // releases the borrow on the program before the
                        // access mutates the machine.
                        let fetched = *fetched;
                        self.exec_active(ti, core, now, fetched.inst, fetched.pc)
                    }
                };
                self.threads[ti].idx += 1;
                cost
            }
            None => match Self::next_block(&thread.regs, blk.term()) {
                Some(target) => {
                    thread.block = target;
                    thread.idx = 0;
                    lat.branch + self.hook_block_entry(core, now, target)
                }
                None => {
                    self.halt(ti, core, now);
                    return;
                }
            },
        };
        self.core_cycles[core] += cost;
        self.sched.reposition(&self.core_cycles, core);
    }

    /// Execute the `Halt` terminator of thread `ti`, the scheduled thread of
    /// `core`, at core clock `now`. Returns the core's new front thread, if
    /// it has one left.
    fn halt(&mut self, ti: usize, core: usize, now: u64) -> Option<usize> {
        self.core_cycles[core] += self.hot.branch + self.hook_thread_exit(core, now);
        self.threads[ti].halted = true;
        self.sched.on_halt(&self.core_cycles, core)
    }

    /// Execute an active non-terminator instruction of thread `ti` at core
    /// clock `now` and return its cost.
    fn exec_active(&mut self, ti: usize, core: usize, now: u64, inst: Inst, pc: Pc) -> u64 {
        let lat = self.hot;
        let mut cost = 0u64;
        match inst {
            Inst::Load { dst, addr, size } => {
                self.inner.stats.loads += 1;
                let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                let action = if self.hook.is_attached() {
                    let op = MemOp {
                        pc,
                        addr: a,
                        size,
                        kind: MemAccessKind::Load,
                        store_value: None,
                    };
                    self.hook_mem_op(core, now, &op)
                        .unwrap_or(HookAction::Passthrough)
                } else {
                    HookAction::Passthrough
                };
                match action {
                    HookAction::Handled {
                        load_value,
                        extra_cycles,
                    } => {
                        self.inner.stats.hook_handled_ops += 1;
                        self.threads[ti].regs[dst.0 as usize] = load_value.unwrap_or(0);
                        cost += extra_cycles;
                    }
                    HookAction::Passthrough => {
                        let (v, c) = self.inner.access(
                            core,
                            pc,
                            a,
                            size,
                            false,
                            MemAccessKind::Load,
                            None,
                            now,
                        );
                        self.threads[ti].regs[dst.0 as usize] = v;
                        cost += c;
                    }
                }
            }
            Inst::Store { src, addr, size } => {
                self.inner.stats.stores += 1;
                let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                let v = Self::mask(Self::eval_operand(&self.threads[ti].regs, src), size);
                let action = if self.hook.is_attached() {
                    let op = MemOp {
                        pc,
                        addr: a,
                        size,
                        kind: MemAccessKind::Store,
                        store_value: Some(v),
                    };
                    self.hook_mem_op(core, now, &op)
                        .unwrap_or(HookAction::Passthrough)
                } else {
                    HookAction::Passthrough
                };
                match action {
                    HookAction::Handled { extra_cycles, .. } => {
                        self.inner.stats.hook_handled_ops += 1;
                        cost += extra_cycles;
                    }
                    HookAction::Passthrough => {
                        let (_, c) = self.inner.access(
                            core,
                            pc,
                            a,
                            size,
                            true,
                            MemAccessKind::Store,
                            Some(v),
                            now,
                        );
                        cost += c;
                    }
                }
            }
            Inst::AtomicRmw {
                op,
                dst,
                addr,
                operand,
                expected,
                size,
            } => {
                self.inner.stats.atomics += 1;
                // Atomics are fences: give the hook a chance to flush.
                cost += self.hook_fence(core, now, pc);
                let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                let operand_v =
                    Self::mask(Self::eval_operand(&self.threads[ti].regs, operand), size);
                // The read-modify-write is a single exclusive-ownership
                // access; its load uop is what the precise PEBS event
                // samples, so record it as a load-kind HITM.
                let old = self.inner.mem.read(a, size);
                let new = match op {
                    RmwOp::FetchAdd => Self::mask(old.wrapping_add(operand_v), size),
                    RmwOp::Exchange => operand_v,
                    RmwOp::CompareExchange => {
                        let exp = Self::mask(
                            Self::eval_operand(
                                &self.threads[ti].regs,
                                expected.unwrap_or(Operand::Imm(0)),
                            ),
                            size,
                        );
                        if old == exp {
                            operand_v
                        } else {
                            old
                        }
                    }
                };
                let (_, c) =
                    self.inner
                        .access(core, pc, a, size, true, MemAccessKind::Load, Some(new), now);
                self.threads[ti].regs[dst.0 as usize] = old;
                cost += c + lat.atomic_extra;
            }
            Inst::MemRmw {
                op,
                addr,
                operand,
                size,
            } => {
                self.inner.stats.loads += 1;
                self.inner.stats.stores += 1;
                let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                let rhs = Self::mask(Self::eval_operand(&self.threads[ti].regs, operand), size);
                // Load half (this is the uop Haswell's precise HITM event
                // samples, so a remote-Modified hit is recorded as a load).
                let load_action = if self.hook.is_attached() {
                    let load_op = MemOp {
                        pc,
                        addr: a,
                        size,
                        kind: MemAccessKind::Load,
                        store_value: None,
                    };
                    self.hook_mem_op(core, now, &load_op)
                        .unwrap_or(HookAction::Passthrough)
                } else {
                    HookAction::Passthrough
                };
                let current = match load_action {
                    HookAction::Handled {
                        load_value,
                        extra_cycles,
                    } => {
                        self.inner.stats.hook_handled_ops += 1;
                        cost += extra_cycles;
                        load_value.unwrap_or(0)
                    }
                    HookAction::Passthrough => {
                        let (v, c) = self.inner.access(
                            core,
                            pc,
                            a,
                            size,
                            false,
                            MemAccessKind::Load,
                            None,
                            now,
                        );
                        cost += c;
                        v
                    }
                };
                let new = Self::mask(op.apply(current, rhs), size);
                let store_action = if self.hook.is_attached() {
                    let store_op = MemOp {
                        pc,
                        addr: a,
                        size,
                        kind: MemAccessKind::Store,
                        store_value: Some(new),
                    };
                    self.hook_mem_op(core, now, &store_op)
                        .unwrap_or(HookAction::Passthrough)
                } else {
                    HookAction::Passthrough
                };
                match store_action {
                    HookAction::Handled { extra_cycles, .. } => {
                        self.inner.stats.hook_handled_ops += 1;
                        cost += extra_cycles;
                    }
                    HookAction::Passthrough => {
                        let (_, c) = self.inner.access(
                            core,
                            pc,
                            a,
                            size,
                            true,
                            MemAccessKind::Store,
                            Some(new),
                            now,
                        );
                        cost += c;
                    }
                }
            }
            Inst::Fence => {
                self.inner.stats.fences += 1;
                cost += self.hook_fence(core, now, pc);
                cost += lat.fence;
            }
            // `exec_one` hands over only what `exec_register_only` declined;
            // running the rest through it keeps this match total without a
            // panic.
            Inst::Mov { .. } | Inst::Alu { .. } | Inst::Cmp { .. } | Inst::Pause | Inst::Nop => {
                cost +=
                    Self::exec_register_only(&mut self.threads[ti].regs, &inst, lat).unwrap_or(0);
            }
        }
        cost
    }
}
