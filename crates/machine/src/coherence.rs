//! A MESI-style coherence directory.
//!
//! The directory tracks, for every cache line that has ever been touched,
//! which core (if any) holds it Modified and which cores share it. Accesses
//! report whether they hit locally, hit in the shared LLC, missed to DRAM, or
//! hit a line Modified in a *remote* cache — the HITM case that Haswell's
//! PEBS facility can sample and that LASER is built around (paper Sections 2
//! and 3).
//!
//! A line's sharer set is one `u64` bitmap, so a directory — and with it a
//! machine — has at most 64 cores.

use std::collections::hash_map::Entry;

use crate::addr::Addr;
use crate::fasthash::FastHashMap;

/// Outcome classification of a single line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// The line was already present locally in a suitable state.
    L1Hit,
    /// The line was present somewhere on chip (shared or needed an upgrade)
    /// but not Modified remotely.
    LlcHit,
    /// The line was Modified in a remote core's cache: a HITM.
    Hitm,
    /// The line had to be fetched from memory.
    Dram,
}

/// Result of a directory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// How the access was satisfied.
    pub class: AccessClass,
    /// For HITM outcomes, the core that previously held the line Modified.
    pub previous_owner: Option<usize>,
    /// Bitmask of the cores that held the line *before* this access (the
    /// sharer set, or the Modified owner's bit; zero for a cold miss). The
    /// topology layer uses it to decide whether an LLC hit was serviced
    /// on-socket or across the interconnect.
    pub sharers: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Shared(u64),
    Modified(usize),
}

/// The coherence directory for all cores.
///
/// Lines are keyed by a fast deterministic hasher: the directory sits on the
/// simulator's hot path (one lookup per line per memory access) and its map
/// is never iterated, so hashing cost is the only thing the hasher choice
/// can change.
#[derive(Debug, Clone)]
pub struct CoherenceDirectory {
    num_cores: usize,
    lines: FastHashMap<Addr, LineState>,
}

impl CoherenceDirectory {
    /// Create a directory for `num_cores` cores.
    ///
    /// # Panics
    /// Panics if `num_cores` is zero or greater than 64 (the width of the
    /// sharer bitmap).
    pub fn new(num_cores: usize) -> Self {
        assert!(
            (1..=64).contains(&num_cores),
            "1..=64 cores supported, got {num_cores}"
        );
        CoherenceDirectory {
            num_cores,
            lines: FastHashMap::default(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of distinct lines the directory has ever tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Perform a coherence access by `core` to the line containing `line_addr`
    /// (must be line-aligned by the caller) and update the directory.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, line_addr: Addr, is_write: bool) -> AccessOutcome {
        assert!(core < self.num_cores, "core {core} out of range");
        let bit = 1u64 << core;
        // One map probe for both the state read and the in-place update.
        let slot = match self.lines.entry(line_addr) {
            Entry::Vacant(e) => {
                // Cold miss.
                e.insert(if is_write {
                    LineState::Modified(core)
                } else {
                    LineState::Shared(bit)
                });
                return AccessOutcome {
                    class: AccessClass::Dram,
                    previous_owner: None,
                    sharers: 0,
                };
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        match *slot {
            LineState::Modified(owner) if owner == core => AccessOutcome {
                class: AccessClass::L1Hit,
                previous_owner: None,
                sharers: bit,
            },
            LineState::Modified(owner) => {
                // Remote modified: HITM. A read leaves the line shared by
                // both; a write transfers ownership.
                *slot = if is_write {
                    LineState::Modified(core)
                } else {
                    LineState::Shared(bit | (1u64 << owner))
                };
                AccessOutcome {
                    class: AccessClass::Hitm,
                    previous_owner: Some(owner),
                    sharers: 1u64 << owner,
                }
            }
            LineState::Shared(sharers) => {
                if is_write {
                    // Upgrade / invalidate others.
                    *slot = LineState::Modified(core);
                    AccessOutcome {
                        class: if sharers == bit {
                            AccessClass::L1Hit
                        } else {
                            AccessClass::LlcHit
                        },
                        previous_owner: None,
                        sharers,
                    }
                } else if sharers & bit != 0 {
                    AccessOutcome {
                        class: AccessClass::L1Hit,
                        previous_owner: None,
                        sharers,
                    }
                } else {
                    *slot = LineState::Shared(sharers | bit);
                    AccessOutcome {
                        class: AccessClass::LlcHit,
                        previous_owner: None,
                        sharers,
                    }
                }
            }
        }
    }

    /// True if `core` currently holds `line_addr` in Modified state.
    pub fn is_modified_by(&self, line_addr: Addr, core: usize) -> bool {
        matches!(self.lines.get(&line_addr), Some(LineState::Modified(o)) if *o == core)
    }

    /// True if any core other than `core` holds `line_addr` Modified.
    pub fn is_remote_modified(&self, line_addr: Addr, core: usize) -> bool {
        matches!(self.lines.get(&line_addr), Some(LineState::Modified(o)) if *o != core)
    }

    /// Reset all coherence state (used between experiment repetitions).
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_local_hits() {
        let mut d = CoherenceDirectory::new(4);
        let o = d.access(0, 0x1000, false);
        assert_eq!(o.class, AccessClass::Dram);
        let o = d.access(0, 0x1000, false);
        assert_eq!(o.class, AccessClass::L1Hit);
        let o = d.access(0, 0x1000, true);
        assert_eq!(o.class, AccessClass::L1Hit); // sole sharer upgrade
        let o = d.access(0, 0x1000, true);
        assert_eq!(o.class, AccessClass::L1Hit);
        assert!(d.is_modified_by(0x1000, 0));
    }

    #[test]
    fn write_read_sharing_triggers_hitm_on_load() {
        let mut d = CoherenceDirectory::new(2);
        d.access(0, 0x40, true); // core0 modifies
        let o = d.access(1, 0x40, false); // core1 reads => HITM (Figure 1a)
        assert_eq!(o.class, AccessClass::Hitm);
        assert_eq!(o.previous_owner, Some(0));
        // Line is now shared; another read is a local hit for core1.
        let o = d.access(1, 0x40, false);
        assert_eq!(o.class, AccessClass::L1Hit);
    }

    #[test]
    fn write_write_sharing_triggers_hitm_on_store() {
        let mut d = CoherenceDirectory::new(2);
        d.access(0, 0x80, true);
        let o = d.access(1, 0x80, true); // Figure 1c
        assert_eq!(o.class, AccessClass::Hitm);
        assert!(d.is_modified_by(0x80, 1));
        assert!(d.is_remote_modified(0x80, 0));
    }

    #[test]
    fn read_write_sharing_costs_invalidation_not_hitm() {
        let mut d = CoherenceDirectory::new(2);
        d.access(0, 0xc0, false); // core0 reads (Shared)
        d.access(1, 0xc0, false); // core1 reads too
        let o = d.access(1, 0xc0, true); // Figure 1b: upgrade, not HITM
        assert_eq!(o.class, AccessClass::LlcHit);
        // ... but the next read by core0 is now a HITM.
        let o = d.access(0, 0xc0, false);
        assert_eq!(o.class, AccessClass::Hitm);
    }

    #[test]
    fn ping_pong_produces_hitm_every_iteration() {
        let mut d = CoherenceDirectory::new(2);
        d.access(0, 0x200, true);
        let mut hitms = 0;
        for i in 0..100 {
            let core = 1 - (i % 2);
            let o = d.access(core, 0x200, true);
            if o.class == AccessClass::Hitm {
                hitms += 1;
            }
        }
        assert_eq!(hitms, 100);
    }

    #[test]
    fn distinct_lines_do_not_interfere() {
        let mut d = CoherenceDirectory::new(2);
        d.access(0, 0x0, true);
        let o = d.access(1, 0x40, true);
        assert_eq!(o.class, AccessClass::Dram);
        assert_eq!(d.tracked_lines(), 2);
        d.clear();
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn outcomes_carry_the_prior_holder_set() {
        let mut d = CoherenceDirectory::new(4);
        let o = d.access(0, 0x100, false);
        assert_eq!(o.sharers, 0, "cold miss: nobody held the line");
        d.access(1, 0x100, false);
        let o = d.access(2, 0x100, false);
        assert_eq!(o.sharers, 0b011, "cores 0 and 1 held it before core 2");
        let o = d.access(3, 0x100, true); // upgrade over three sharers
        assert_eq!(o.sharers, 0b111);
        let o = d.access(0, 0x100, true); // HITM: owner 3's bit
        assert_eq!(o.class, AccessClass::Hitm);
        assert_eq!(o.sharers, 0b1000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut d = CoherenceDirectory::new(2);
        d.access(2, 0x0, false);
    }

    #[test]
    fn a_64_core_directory_tracks_the_top_core_bit() {
        // The sharer bitmap is one u64, so core 63's bit is the sign bit:
        // it must survive a shared read, an upgrade and a write like any
        // other core's.
        let mut d = CoherenceDirectory::new(64);
        d.access(63, 0x300, false);
        let o = d.access(0, 0x300, false);
        assert_eq!(o.class, AccessClass::LlcHit);
        assert_eq!(o.sharers, 1u64 << 63, "core 63's bit survives");
        let o = d.access(63, 0x300, true); // upgrade over two sharers
        assert_eq!(o.class, AccessClass::LlcHit);
        assert_eq!(o.sharers, (1u64 << 63) | 1);
        let o = d.access(0, 0x300, false);
        assert_eq!(o.class, AccessClass::Hitm);
        assert_eq!(o.previous_owner, Some(63));
        assert_eq!(o.sharers, 1u64 << 63);
    }

    #[test]
    #[should_panic(expected = "1..=64 cores supported")]
    fn directories_cap_at_64_cores() {
        let _ = CoherenceDirectory::new(65);
    }
}
