//! The HITM record delivered to the detector.

use laser_machine::{Addr, CoreId};

/// A PEBS HITM record after the driver has stripped it down to the fields the
/// detector needs: the PC, the data linear address, and the originating core
/// (paper Section 6). Unlike [`laser_machine::HitmEvent`], the PC and data
/// address here may be *imprecise*, as characterized in Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitmRecord {
    /// Program counter reported by the hardware (possibly off by an adjacent
    /// instruction, or entirely wrong for store-triggered events).
    pub pc: u64,
    /// Data linear address reported by the hardware (possibly pointing at
    /// unmapped memory for imprecise records).
    pub data_addr: Addr,
    /// Core whose PMU produced the record.
    pub core: CoreId,
    /// Core-local cycle count when the sampled event occurred; used by the
    /// detector to compute HITM rates.
    pub cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_small_and_copyable() {
        let r = HitmRecord {
            pc: 1,
            data_addr: 2,
            core: CoreId(3),
            cycle: 4,
        };
        let s = r;
        assert_eq!(r, s);
        // The driver ships millions of these; keep them compact.
        assert!(std::mem::size_of::<HitmRecord>() <= 40);
    }
}
