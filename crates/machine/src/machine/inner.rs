//! Shared mutable machine state: memory, coherence directory, statistics.
//!
//! [`MachineInner`] is the part of the machine that both normal instruction
//! execution and attached hooks operate on; hooks receive it through
//! [`crate::hook::HookCtx`] so a software-store-buffer flush goes through the
//! same coherence directory as the application's own accesses.

use laser_isa::program::Pc;

use crate::addr::{iter_lines_touched, Addr};
use crate::coherence::CoherenceDirectory;
use crate::event::{HitmEvent, MemAccessKind};
use crate::htm::{fits_in_transaction, HtmOutcome};
use crate::machine::CoreId;
use crate::mem::SparseMemory;
use crate::stats::MachineStats;
use crate::timing::LatencyModel;
use crate::topology::{ResolvedClass, Topology};

/// Shared mutable machine state that both normal execution and attached hooks
/// operate on.
pub(crate) struct MachineInner {
    pub(crate) mem: SparseMemory,
    pub(crate) coh: CoherenceDirectory,
    pub(crate) stats: MachineStats,
    pub(crate) pending_hitms: Vec<HitmEvent>,
    pub(crate) latency: LatencyModel,
    pub(crate) topology: Topology,
    /// `topology`'s core → socket table for this machine's core count.
    pub(crate) sockets: Vec<u32>,
}

impl MachineInner {
    /// Perform a memory access through the coherence directory, recording a
    /// HITM event when the access hits a remotely-Modified line. Returns the
    /// loaded value (0 for stores) and the cycle cost.
    pub(crate) fn access(
        &mut self,
        core: usize,
        pc: Pc,
        addr: Addr,
        size: u8,
        is_write: bool,
        event_kind: MemAccessKind,
        store_value: Option<u64>,
        now: u64,
    ) -> (u64, u64) {
        let mut worst = 0u64;
        for line in iter_lines_touched(addr, size) {
            let outcome = self.coh.access(core, line, is_write);
            // The directory decides *what* happened; the topology decides
            // *where* it was serviced and what that costs. On the default
            // single-socket topology every class resolves local and is priced
            // straight from the base latency model.
            let class = self
                .topology
                .resolve_in(&outcome, core, &self.sockets, line);
            match class {
                ResolvedClass::L1Hit => self.stats.l1_hits += 1,
                ResolvedClass::LlcLocal => self.stats.llc_hits += 1,
                ResolvedClass::LlcRemote => {
                    self.stats.llc_hits += 1;
                    self.stats.llc_remote_hits += 1;
                }
                ResolvedClass::DramLocal => self.stats.dram_accesses += 1,
                ResolvedClass::DramRemote => {
                    self.stats.dram_accesses += 1;
                    self.stats.dram_remote_accesses += 1;
                }
                ResolvedClass::HitmLocal | ResolvedClass::HitmRemote => {
                    self.stats.hitm_events += 1;
                    if class == ResolvedClass::HitmRemote {
                        self.stats.hitm_remote += 1;
                    } else {
                        self.stats.hitm_local += 1;
                    }
                    match event_kind {
                        MemAccessKind::Load => self.stats.hitm_loads += 1,
                        MemAccessKind::Store => self.stats.hitm_stores += 1,
                    }
                    self.pending_hitms.push(HitmEvent {
                        core: CoreId(core),
                        pc,
                        addr,
                        size,
                        kind: event_kind,
                        cycle: now,
                    });
                }
            }
            worst = worst.max(self.topology.cost(class, &self.latency));
        }
        let value = if is_write {
            if let Some(v) = store_value {
                self.mem.write(addr, size, v);
            }
            0
        } else {
            self.mem.read(addr, size)
        };
        (value, worst)
    }

    /// Execute a write set atomically inside a hardware transaction.
    pub(crate) fn htm_execute(
        &mut self,
        core: usize,
        pc: Pc,
        writes: &[(Addr, u8, u64)],
        now: u64,
    ) -> HtmOutcome {
        let mut lines: Vec<Addr> = Vec::new();
        for (addr, size, _) in writes {
            for l in iter_lines_touched(*addr, *size) {
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
        }
        if !fits_in_transaction(lines.len()) {
            self.stats.htm_capacity_aborts += 1;
            return HtmOutcome::CapacityAborted;
        }
        let mut cycles = self.latency.htm_begin + self.latency.htm_commit;
        for (addr, size, value) in writes {
            let (_, c) = self.access(
                core,
                pc,
                *addr,
                *size,
                true,
                MemAccessKind::Store,
                Some(*value),
                now,
            );
            cycles += c;
        }
        self.stats.htm_commits += 1;
        HtmOutcome::Committed { cycles }
    }
}
