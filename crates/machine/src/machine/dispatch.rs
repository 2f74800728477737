//! Hook attachment and dispatch — the machine side of the Pin substitute.
//!
//! The hook lives in its own [`HookSlot`] field of the machine, disjoint from
//! the [`MachineInner`](crate::machine::MachineInner) state a running hook
//! mutates. Field-level borrow splitting then lets a dispatcher hand the hook
//! a [`HookCtx`] without moving the hook out of the machine first: the
//! no-hook path is a single `None` branch, and the hooked path pays no
//! `Option::take`/restore round-trip per call.

use laser_isa::program::{BlockId, Pc};

use crate::hook::{ExecHook, HookAction, HookCtx, MemOp};
use crate::machine::Machine;

/// The machine's hook attachment point, with what the hook declared when it
/// was attached (the run-ahead contract of [`ExecHook`]). A dedicated struct
/// (not fields of the machine) so the dispatchers below borrow it
/// independently of the inner state both lexically and in intent: everything
/// the hook may touch lives on the other side of the split.
pub(crate) struct HookSlot {
    hook: Option<Box<dyn ExecHook>>,
    /// [`ExecHook::cost_floor`] of the attached hook; `u64::MAX` with none
    /// attached, which services nothing.
    pub(crate) cost_floor: u64,
    /// Per `BlockId`: whether entering the block must reach the hook, i.e.
    /// the block entry is an *active* instruction for the round loop. Empty
    /// with no hook attached: no entry is active, and the lookup never gets
    /// past the length. Read from [`ExecHook::block_entry_is_inert`] once per
    /// attachment, so the inner loop pays an index, never a `dyn` call.
    pub(crate) active_entry: Vec<bool>,
}

impl Default for HookSlot {
    fn default() -> Self {
        HookSlot {
            hook: None,
            cost_floor: u64::MAX,
            active_entry: Vec::new(),
        }
    }
}

impl HookSlot {
    /// True if a hook is attached — the hot loop's one-branch fast-path
    /// check, used to skip argument marshalling entirely when unhooked.
    #[inline]
    pub(crate) fn is_attached(&self) -> bool {
        self.hook.is_some()
    }
}

impl Machine {
    /// Attach a dynamic-instrumentation hook (the Pin substitute). Replaces
    /// any previously attached hook. The hook's run-ahead contract
    /// ([`ExecHook::cost_floor`], [`ExecHook::block_entry_is_inert`]) is read
    /// here, once.
    pub fn attach_hook(&mut self, hook: Box<dyn ExecHook>) {
        let blocks = self.decoded.num_blocks() as u32;
        self.hook = HookSlot {
            cost_floor: hook.cost_floor(),
            active_entry: (0..blocks)
                .map(|id| !hook.block_entry_is_inert(BlockId(id)))
                .collect(),
            hook: Some(hook),
        };
    }

    /// Detach and return the current hook, if any.
    pub fn detach_hook(&mut self) -> Option<Box<dyn ExecHook>> {
        std::mem::take(&mut self.hook).hook
    }

    /// The currently attached hook, if any (e.g. to read tool statistics via
    /// [`ExecHook::as_any`] while the machine still owns the hook).
    pub fn hook(&self) -> Option<&dyn ExecHook> {
        self.hook.hook.as_deref()
    }

    /// True if a hook is currently attached.
    pub fn has_hook(&self) -> bool {
        self.hook.is_attached()
    }

    pub(crate) fn hook_mem_op(&mut self, core: usize, now: u64, op: &MemOp) -> Option<HookAction> {
        let hook = self.hook.hook.as_deref_mut()?;
        let mut ctx = HookCtx {
            inner: &mut self.inner,
            core,
            now,
        };
        Some(hook.on_mem_op(&mut ctx, op))
    }

    pub(crate) fn hook_fence(&mut self, core: usize, now: u64, pc: Pc) -> u64 {
        let Some(hook) = self.hook.hook.as_deref_mut() else {
            return 0;
        };
        let mut ctx = HookCtx {
            inner: &mut self.inner,
            core,
            now,
        };
        hook.on_fence(&mut ctx, pc)
    }

    pub(crate) fn hook_block_entry(&mut self, core: usize, now: u64, block: BlockId) -> u64 {
        let Some(hook) = self.hook.hook.as_deref_mut() else {
            return 0;
        };
        let mut ctx = HookCtx {
            inner: &mut self.inner,
            core,
            now,
        };
        hook.on_block_entry(&mut ctx, block)
    }

    pub(crate) fn hook_thread_exit(&mut self, core: usize, now: u64) -> u64 {
        let Some(hook) = self.hook.hook.as_deref_mut() else {
            return 0;
        };
        let mut ctx = HookCtx {
            inner: &mut self.inner,
            core,
            now,
        };
        hook.on_thread_exit(&mut ctx)
    }
}
