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
//!   directory, the statistics, the HITM queue or the scheduler's keys.
//!   Register-only semantics live in [`Machine::exec_register_only`] and
//!   [`Machine::next_block`], once, for both paths below.
//! * **Horizon-bounded run-ahead** (no hook attached): a *round* picks a
//!   clock horizon `H` and runs every core until its next instruction's
//!   pre-clock is `≥ H`. Below `H` the scheduled core retires register-only
//!   instructions in a tight local loop with no scheduler maintenance; an
//!   active instruction goes through `step()`'s dispatch, and only while its
//!   core is the [`CoreSched`](super::sched::CoreSched) heap root, so active
//!   instructions still execute strictly in key order. A round ends having
//!   executed exactly the instructions with pre-clock `< H`, which is a
//!   prefix of the per-instruction order (that order is sorted by key). `H`
//!   is `min_clock + (left / live_cores) × floor`, where `floor ≥ 1` is the
//!   least any instruction costs, so each live core retires at most
//!   `left / live_cores` instructions and a round cannot overshoot the `left`
//!   steps still owed. Rounds repeat until fewer than 8 steps per live core
//!   are owed; that short tail is plain `step()`.
//! * With a hook attached every instruction is dispatched in order through
//!   `step()`: a hook may service an operation at zero cost, so the bound
//!   above does not hold, and block entries must reach the hook in order.
//!   The no-hook path in `step()` is a single branch per dispatch site
//!   (`self.hook.is_attached()`); hook argument marshalling only happens on
//!   the hooked path.

use laser_isa::inst::{Inst, MemAddr, Operand, RmwOp, Terminator, NUM_REGS};
use laser_isa::program::{BlockId, Pc};

use crate::addr::Addr;
use crate::event::MemAccessKind;
use crate::hook::{HookAction, MemOp};
use crate::machine::{Machine, MachineError, RunResult, RunStatus};
use crate::timing::HotLatency;

/// Rounds of run-ahead stop once fewer than this many steps per live core are
/// owed: a round's fixed cost no longer pays for itself, and the remaining
/// steps are dispatched one by one.
const MIN_ROUND_STEPS_PER_CORE: u64 = 8;

impl Machine {
    /// Run at most `n` instructions: equivalent to `n` single steps, each
    /// executing one instruction of the thread whose `(core clock, thread
    /// index)` key is lowest, stopping early once every thread has halted.
    /// The machine state afterwards — clocks, statistics, pending HITM
    /// events, every thread's registers and position — is the
    /// per-instruction one, whatever `n` is. Returns [`RunStatus::Done`]
    /// once all threads have halted.
    pub fn run_steps(&mut self, n: u64) -> RunStatus {
        let tail = if self.hook.is_attached() {
            n
        } else {
            self.run_ahead(n)
        };
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

    /// Run until every thread halts.
    ///
    /// # Errors
    /// Returns [`MachineError::MaxStepsExceeded`] if the configured step
    /// budget runs out first; the machine has then executed exactly
    /// `max_steps` instructions.
    pub fn run_to_completion(&mut self) -> Result<RunResult, MachineError> {
        let budget = self.config.max_steps.saturating_sub(self.steps);
        match self.run_steps(budget) {
            RunStatus::Done => Ok(self.result()),
            RunStatus::Running => Err(MachineError::MaxStepsExceeded {
                steps: self.config.max_steps,
            }),
        }
    }

    /// Execute whole run-ahead rounds out of a budget of `left` steps and
    /// return the steps still owed (fewer than
    /// [`MIN_ROUND_STEPS_PER_CORE`] per live core, or anything once every
    /// thread has halted).
    fn run_ahead(&mut self, mut left: u64) -> u64 {
        while let Some(root) = self.sched.root() {
            let live = self.sched.live_cores() as u64;
            if left < MIN_ROUND_STEPS_PER_CORE * live {
                break;
            }
            // Every instruction costs at least `floor`, so a core starting at
            // or above the minimum clock retires at most `left / live`
            // instructions before its clock reaches the horizon. Saturation
            // only lowers the horizon.
            let horizon =
                self.core_cycles[root].saturating_add((left / live).saturating_mul(self.hot.floor));
            let done = self.run_to_horizon(horizon);
            debug_assert!(done <= left, "a round overshot its budget");
            left -= done;
        }
        left
    }

    /// One round: execute every instruction whose pre-clock is below
    /// `horizon`, active ones in `(core clock, thread index)` order, and
    /// return how many that was.
    fn run_to_horizon(&mut self, horizon: u64) -> u64 {
        let before = self.steps;
        // The root has the lowest clock: once it reaches the horizon, every
        // core has.
        while let Some(core) = self.sched.root() {
            let start = self.core_cycles[core];
            if start >= horizon {
                break;
            }
            let ti = self.sched.front(core);
            let at_active = self.run_register_only(ti, core, horizon);
            if self.core_cycles[core] != start {
                self.sched.reposition(&self.core_cycles, core);
                if self.sched.root() != Some(core) {
                    // Another core's next instruction now comes first; this
                    // core's active instruction waits for its turn.
                    continue;
                }
            }
            if at_active {
                self.exec_one(ti);
            }
        }
        self.steps - before
    }

    /// The run-ahead inner loop: retire register-only instructions of thread
    /// `ti` (the front thread of `core`) while the core's clock is below
    /// `horizon`, with no scheduler maintenance — the caller repositions the
    /// core once. Returns true if it stopped in front of an active
    /// instruction (whose pre-clock is then below the horizon), false if it
    /// stopped at the horizon.
    fn run_register_only(&mut self, ti: usize, core: usize, horizon: u64) -> bool {
        let lat = self.hot;
        let thread = &mut self.threads[ti];
        let mut blk = self.decoded.block(thread.block);
        let mut idx = thread.idx;
        let mut clock = self.core_cycles[core];
        let mut retired = 0u64;
        let at_active = loop {
            if clock >= horizon {
                break false;
            }
            let cost = match blk.insts().get(idx) {
                Some(fetched) => {
                    let Some(cost) = Self::exec_register_only(&mut thread.regs, &fetched.inst, lat)
                    else {
                        break true;
                    };
                    idx += 1;
                    cost
                }
                None => {
                    let Some(target) = Self::next_block(&thread.regs, blk.term()) else {
                        break true;
                    };
                    thread.block = target;
                    blk = self.decoded.block(target);
                    idx = 0;
                    lat.branch
                }
            };
            clock += cost;
            retired += 1;
        };
        thread.idx = idx;
        self.core_cycles[core] = clock;
        self.steps += retired;
        self.inner.stats.instructions += retired;
        at_active
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
                    self.core_cycles[core] += lat.branch + self.hook_thread_exit(core, now);
                    self.threads[ti].halted = true;
                    self.sched.on_halt(&self.core_cycles, core);
                    return;
                }
            },
        };
        self.core_cycles[core] += cost;
        self.sched.reposition(&self.core_cycles, core);
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
