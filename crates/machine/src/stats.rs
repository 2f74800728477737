//! Execution statistics collected by the simulator.

/// Counters accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Instructions executed (including terminators).
    pub instructions: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// Atomic read-modify-write instructions executed.
    pub atomics: u64,
    /// Explicit fences executed.
    pub fences: u64,
    /// Accesses satisfied from the local L1.
    pub l1_hits: u64,
    /// Accesses satisfied on-chip without a HITM.
    pub llc_hits: u64,
    /// Accesses that hit a remotely-Modified line (HITM events).
    pub hitm_events: u64,
    /// HITM events triggered by loads.
    pub hitm_loads: u64,
    /// HITM events triggered by stores.
    pub hitm_stores: u64,
    /// HITM events serviced by a core on the accessor's own socket. On a
    /// single-socket topology every HITM is local.
    pub hitm_local: u64,
    /// HITM events serviced across the interconnect — the 2-3× dearer
    /// cross-socket transfers repair removes. `hitm_local + hitm_remote ==
    /// hitm_events` always.
    pub hitm_remote: u64,
    /// LLC hits serviced from another socket's cache (subset of `llc_hits`).
    pub llc_remote_hits: u64,
    /// Accesses that went to DRAM.
    pub dram_accesses: u64,
    /// DRAM accesses homed on another socket (subset of `dram_accesses`).
    pub dram_remote_accesses: u64,
    /// Memory operations intercepted and serviced by an attached hook
    /// (the Pin/SSB instrumentation path).
    pub hook_handled_ops: u64,
    /// Hardware transactions committed.
    pub htm_commits: u64,
    /// Hardware transactions aborted for capacity.
    pub htm_capacity_aborts: u64,
    /// Cycles injected by external agents (driver interrupts, detector
    /// processing, instrumentation overhead).
    pub injected_overhead_cycles: u64,
}

impl MachineStats {
    /// Fraction of memory accesses that were HITMs.
    pub fn hitm_fraction(&self) -> f64 {
        let mem = self.loads + self.stores + self.atomics;
        if mem == 0 {
            0.0
        } else {
            self.hitm_events as f64 / mem as f64
        }
    }

    /// Fraction of HITM events that crossed a socket boundary (0.0 when the
    /// run saw no HITMs at all, as on a single-socket topology with no
    /// contention).
    pub fn remote_hitm_share(&self) -> f64 {
        if self.hitm_events == 0 {
            0.0
        } else {
            self.hitm_remote as f64 / self.hitm_events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitm_fraction_handles_zero() {
        let s = MachineStats::default();
        assert_eq!(s.hitm_fraction(), 0.0);
        let s = MachineStats {
            loads: 50,
            stores: 50,
            hitm_events: 10,
            ..Default::default()
        };
        assert!((s.hitm_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn remote_hitm_share_handles_zero_and_splits() {
        let s = MachineStats::default();
        assert_eq!(s.remote_hitm_share(), 0.0);
        let s = MachineStats {
            hitm_events: 10,
            hitm_local: 6,
            hitm_remote: 4,
            ..Default::default()
        };
        assert!((s.remote_hitm_share() - 0.4).abs() < 1e-12);
    }
}
