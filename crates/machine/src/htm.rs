//! Hardware transactional memory (Intel RTM) model.
//!
//! LASERREPAIR flushes its software store buffer inside a hardware
//! transaction so that the coalesced (and therefore potentially re-ordered)
//! stores become visible to other threads atomically, which preserves TSO
//! (paper Section 5.5). The only RTM properties the repair scheme relies on
//! are strong atomicity and a bounded write-set capacity of roughly the L1
//! associativity (8 ways on the paper's machine); both are modelled here.

/// Maximum number of distinct cache lines a transaction's write set may
/// contain before it aborts for capacity. The paper's machine has an 8-way L1,
/// and LASERREPAIR pre-emptively flushes when the SSB exceeds 8 entries.
pub const HTM_CAPACITY_LINES: usize = 8;

/// Outcome of attempting a hardware transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtmOutcome {
    /// The transaction committed; `cycles` is its total cost (begin + body +
    /// commit).
    Committed {
        /// Cycles charged for the whole transaction.
        cycles: u64,
    },
    /// The write set exceeded [`HTM_CAPACITY_LINES`]; the caller must fall
    /// back to a non-transactional path.
    CapacityAborted,
}

impl HtmOutcome {
    /// True if the transaction committed.
    pub fn committed(&self) -> bool {
        matches!(self, HtmOutcome::Committed { .. })
    }
}

/// Check whether a write set touching `distinct_lines` cache lines fits in a
/// transaction.
pub fn fits_in_transaction(distinct_lines: usize) -> bool {
    distinct_lines <= HTM_CAPACITY_LINES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rule() {
        assert!(fits_in_transaction(0));
        assert!(fits_in_transaction(8));
        assert!(!fits_in_transaction(9));
    }

    #[test]
    fn outcome_predicates() {
        assert!(HtmOutcome::Committed { cycles: 10 }.committed());
        assert!(!HtmOutcome::CapacityAborted.committed());
    }
}
