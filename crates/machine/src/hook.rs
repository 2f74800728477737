//! Dynamic instrumentation hooks — the Pin substitute.
//!
//! The paper's LASERREPAIR attaches Intel Pin to the running process and
//! rewrites the contending instructions to use a software store buffer. The
//! simulator offers the same interception points through the [`ExecHook`]
//! trait: an attached tool sees every memory operation before it reaches the
//! cache hierarchy and may either let it pass through or service it itself
//! (buffering a store, returning a buffered value for a load), charging
//! whatever extra cycles the instrumentation costs. Hooks are also notified at
//! fences, block entries (where flushes are placed) and thread exit.
//!
//! A hook may also tell the machine what it will *not* do — the run-ahead
//! contract of [`ExecHook::cost_floor`] and
//! [`ExecHook::block_entry_is_inert`] — so that a hooked machine can retire
//! register-only instructions ahead of the scheduler like an un-hooked one.

use laser_isa::program::{BlockId, Pc};

use crate::addr::Addr;
use crate::event::MemAccessKind;
use crate::htm::HtmOutcome;
use crate::machine::{CoreId, MachineInner};
use crate::timing::LatencyModel;

/// A memory operation about to be executed by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// PC of the instruction.
    pub pc: Pc,
    /// Effective data address.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
    /// Load or store.
    pub kind: MemAccessKind,
    /// For stores, the value being written (already masked to `size` bytes).
    pub store_value: Option<u64>,
}

/// What the hook decided to do with a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Let the simulator perform the access normally.
    Passthrough,
    /// The hook serviced the access itself (e.g. from the software store
    /// buffer). For loads, `load_value` is the value to place in the
    /// destination register; `extra_cycles` is the instrumentation cost.
    Handled {
        /// Value returned to the load destination register, if a load.
        load_value: Option<u64>,
        /// Cycles to charge to the executing core.
        extra_cycles: u64,
    },
}

/// Access to the machine's memory system granted to a hook while it runs.
///
/// Reads and writes performed through this context go through the coherence
/// directory, so a software-store-buffer flush performed by a hook can itself
/// produce (far fewer) HITM events, exactly as on real hardware.
pub struct HookCtx<'a> {
    pub(crate) inner: &'a mut MachineInner,
    pub(crate) core: usize,
    pub(crate) now: u64,
}

impl HookCtx<'_> {
    /// The core on whose behalf the hook is running.
    pub fn core(&self) -> CoreId {
        CoreId(self.core)
    }

    /// The executing core's current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.inner.latency
    }

    /// Perform a real load of `size` bytes at `addr`, attributed to `pc`.
    /// Returns the value and the cycles the access cost.
    pub fn mem_read(&mut self, pc: Pc, addr: Addr, size: u8) -> (u64, u64) {
        self.inner.access(
            self.core,
            pc,
            addr,
            size,
            false,
            MemAccessKind::Load,
            None,
            self.now,
        )
    }

    /// Perform a real store of `size` bytes at `addr`, attributed to `pc`.
    /// Returns the cycles the access cost.
    pub fn mem_write(&mut self, pc: Pc, addr: Addr, size: u8, value: u64) -> u64 {
        self.inner
            .access(
                self.core,
                pc,
                addr,
                size,
                true,
                MemAccessKind::Store,
                Some(value),
                self.now,
            )
            .1
    }

    /// Flush a set of buffered writes atomically inside a hardware
    /// transaction. Returns [`HtmOutcome::CapacityAborted`] without performing
    /// any write if the write set spans more cache lines than the transaction
    /// capacity; the caller must then fall back to a fenced, non-transactional
    /// flush.
    pub fn htm_flush(&mut self, pc: Pc, writes: &[(Addr, u8, u64)]) -> HtmOutcome {
        self.inner.htm_execute(self.core, pc, writes, self.now)
    }
}

/// A dynamic-instrumentation tool attached to the machine.
///
/// All methods have default no-op implementations so tools only override the
/// interception points they need.
///
/// # The run-ahead contract
///
/// [`Machine::run_steps`](crate::Machine::run_steps) retires instructions
/// that no other core can observe ahead of the scheduler, inside a clock
/// horizon computed from the least any instruction can cost. Two things a
/// hook is free to do would break that — service an operation for fewer
/// cycles than the machine's own cheapest instruction, and act on a block
/// entry (which must then reach it in global order) — so the machine assumes
/// both unless the hook promises otherwise:
///
/// * [`cost_floor`](ExecHook::cost_floor): the least `extra_cycles` of any
///   [`HookAction::Handled`] it returns. The default `0` promises nothing,
///   and the machine then dispatches every instruction in order, one at a
///   time.
/// * [`block_entry_is_inert`](ExecHook::block_entry_is_inert): the blocks
///   whose entry the hook ignores. The default is none; every other entry is
///   dispatched to the hook in order like a memory operation, and inert ones
///   are not dispatched at all while the machine runs ahead.
///
/// The machine reads both **once, in
/// [`attach_hook`](crate::Machine::attach_hook)**, so the answers must not
/// change while the hook is attached. They change *when* the machine calls
/// the hook's no-ops, never what a run produces: a hook that keeps its
/// promises sees the same operations, in the same order and at the same
/// [`HookCtx::now`], as under per-instruction dispatch.
///
/// Hooks are required to be `Send` (they own their state outright — no
/// `Rc`/`RefCell` sharing with the outside), so a machine with a hook
/// attached remains a self-contained value that can move across threads;
/// that is what lets whole tool runs be fanned out over a thread pool.
pub trait ExecHook: Send {
    /// Expose the concrete tool for downcasting, so a caller holding the
    /// machine can read tool statistics (e.g. via [`std::any::Any`]) without
    /// the tool having to share state behind `Rc<RefCell<..>>`. Tools that
    /// carry no queryable state can keep the `None` default.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// The least cycles any operation this hook services
    /// ([`HookAction::Handled`]) is charged. `0` — the default — is no
    /// promise: the machine dispatches per instruction. A hook that never
    /// services anything may return `u64::MAX`. See the trait docs.
    fn cost_floor(&self) -> u64 {
        0
    }

    /// Whether [`on_block_entry`](ExecHook::on_block_entry) for `block`
    /// always returns 0 and does nothing, so the machine may skip the call.
    /// The default is `false` for every block. See the trait docs.
    fn block_entry_is_inert(&self, block: BlockId) -> bool {
        let _ = block;
        false
    }

    /// Called before every memory operation. Returning
    /// [`HookAction::Passthrough`] lets the access proceed normally.
    fn on_mem_op(&mut self, ctx: &mut HookCtx<'_>, op: &MemOp) -> HookAction {
        let _ = (ctx, op);
        HookAction::Passthrough
    }

    /// Called at explicit fences and atomic read-modify-writes, *before* the
    /// fencing instruction executes. Returns extra cycles to charge.
    fn on_fence(&mut self, ctx: &mut HookCtx<'_>, pc: Pc) -> u64 {
        let _ = (ctx, pc);
        0
    }

    /// Called when control transfers to a new basic block. Returns extra
    /// cycles to charge. This is where LASERREPAIR's flush blocks run.
    fn on_block_entry(&mut self, ctx: &mut HookCtx<'_>, block: BlockId) -> u64 {
        let _ = (ctx, block);
        0
    }

    /// Called when a thread halts. Returns extra cycles to charge.
    fn on_thread_exit(&mut self, ctx: &mut HookCtx<'_>) -> u64 {
        let _ = ctx;
        0
    }
}

/// A hook that does nothing, and says so: it services no operation and every
/// block entry is inert, so a machine carrying it runs ahead exactly like an
/// un-hooked one. Useful as a baseline in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl ExecHook for NullHook {
    fn cost_floor(&self) -> u64 {
        u64::MAX
    }

    fn block_entry_is_inert(&self, _block: BlockId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hook_methods_are_noops() {
        // The interception points need a machine to call them; here only the
        // plain values they exchange.
        let action = HookAction::Handled {
            load_value: Some(7),
            extra_cycles: 3,
        };
        assert_ne!(action, HookAction::Passthrough);
        let op = MemOp {
            pc: 0x40_0000,
            addr: 0x1000,
            size: 8,
            kind: MemAccessKind::Load,
            store_value: None,
        };
        assert_eq!(op.kind, MemAccessKind::Load);
    }

    #[test]
    fn an_undeclared_hook_promises_nothing_and_the_null_hook_everything() {
        struct Undeclared;
        impl ExecHook for Undeclared {}
        assert_eq!(Undeclared.cost_floor(), 0);
        assert!(!Undeclared.block_entry_is_inert(BlockId(0)));
        assert_eq!(NullHook.cost_floor(), u64::MAX);
        assert!(NullHook.block_entry_is_inert(BlockId(0)));
    }
}
