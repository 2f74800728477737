//! Coherence events observed by the performance-monitoring hardware.

use crate::addr::Addr;
use crate::machine::CoreId;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// A load (or the read half of an atomic).
    Load,
    /// A store (or the write half of an atomic).
    Store,
}

/// A HITM event: a core accessed a cache line that was in Modified state in a
/// remote core's cache.
///
/// These are the ground-truth events; the PEBS model in `laser-pebs` samples
/// them and injects Haswell's measured record imprecision before anything
/// reaches the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitmEvent {
    /// The core that performed the access.
    pub core: CoreId,
    /// PC of the triggering instruction (exact).
    pub pc: u64,
    /// Data address of the access (exact).
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
    /// Whether the access was a load or a store. Haswell's
    /// `MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM` event is precise only for
    /// loads; store-triggered HITMs produce much noisier records.
    pub kind: MemAccessKind,
    /// The core-local cycle count at which the event occurred.
    pub cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_copy_and_comparable() {
        let e = HitmEvent {
            core: CoreId(1),
            pc: 0x40_0000,
            addr: 0x1000_0040,
            size: 8,
            kind: MemAccessKind::Store,
            cycle: 123,
        };
        let f = e;
        assert_eq!(e, f);
        assert_eq!(f.kind, MemAccessKind::Store);
    }
}
