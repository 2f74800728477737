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
//!
//! The directory keeps one state per line in a line table (`dense.rs`),
//! split the way memory is: a machine's directory indexes the lines of the
//! data its image allocated (see
//! [`crate::image::MemoryLayout::data_extents`]) by `(addr − base) >> 6` and
//! keeps every other line in one `BTreeMap`. Every line goes through one
//! transition function wherever it lives. A directory built with
//! [`CoherenceDirectory::new`] keeps every line in the map.

use std::ops::Range;

use crate::addr::Addr;
use crate::dense::LineTable;

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
pub(crate) enum LineState {
    Shared(u64),
    Modified(usize),
}

/// The MESI transition of one access by `core` to a line in `state` (`None`:
/// never touched): the line's next state and the access's outcome.
#[inline]
fn transition(state: Option<LineState>, core: usize, is_write: bool) -> (LineState, AccessOutcome) {
    let bit = 1u64 << core;
    let outcome = |class, previous_owner, sharers| AccessOutcome {
        class,
        previous_owner,
        sharers,
    };
    match state {
        // Cold miss.
        None => {
            let next = if is_write {
                LineState::Modified(core)
            } else {
                LineState::Shared(bit)
            };
            (next, outcome(AccessClass::Dram, None, 0))
        }
        Some(LineState::Modified(owner)) if owner == core => (
            LineState::Modified(owner),
            outcome(AccessClass::L1Hit, None, bit),
        ),
        // Remote modified: HITM. A read leaves the line shared by both; a
        // write transfers ownership.
        Some(LineState::Modified(owner)) => {
            let next = if is_write {
                LineState::Modified(core)
            } else {
                LineState::Shared(bit | (1u64 << owner))
            };
            (next, outcome(AccessClass::Hitm, Some(owner), 1u64 << owner))
        }
        // Upgrade / invalidate others.
        Some(LineState::Shared(sharers)) if is_write => {
            let class = if sharers == bit {
                AccessClass::L1Hit
            } else {
                AccessClass::LlcHit
            };
            (LineState::Modified(core), outcome(class, None, sharers))
        }
        Some(LineState::Shared(sharers)) => {
            let class = if sharers & bit != 0 {
                AccessClass::L1Hit
            } else {
                AccessClass::LlcHit
            };
            (
                LineState::Shared(sharers | bit),
                outcome(class, None, sharers),
            )
        }
    }
}

/// The coherence directory for all cores: one state per line, `None` for a
/// line never touched.
#[derive(Debug, Clone)]
pub struct CoherenceDirectory {
    num_cores: usize,
    pub(crate) lines: LineTable<Option<LineState>>,
}

impl CoherenceDirectory {
    /// Create a directory for `num_cores` cores that keeps every line in its
    /// map.
    ///
    /// # Panics
    /// Panics if `num_cores` is zero or greater than 64 (the width of the
    /// sharer bitmap).
    pub fn new(num_cores: usize) -> Self {
        Self::with_extents(num_cores, &[])
    }

    /// Create a directory for `num_cores` cores that indexes the lines of
    /// `extents` (each rounded out to whole lines, up to
    /// [`MAX_DENSE_LINES`](crate::dense::MAX_DENSE_LINES) lines in all; an
    /// extent past it stays in the map) and maps the rest. Every access has
    /// the outcome it has on [`CoherenceDirectory::new`].
    ///
    /// # Panics
    /// Panics if `num_cores` is zero or greater than 64, or if two extents
    /// overlap.
    pub(crate) fn with_extents(num_cores: usize, extents: &[Range<Addr>]) -> Self {
        assert!(
            (1..=64).contains(&num_cores),
            "1..=64 cores supported, got {num_cores}"
        );
        CoherenceDirectory {
            num_cores,
            lines: LineTable::new(extents, None),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of distinct lines ever accessed (a line, once touched, is never
    /// forgotten). Counts every indexed line too, so it costs one pass over
    /// them.
    pub fn tracked_lines(&self) -> usize {
        self.lines.values().filter(|s| s.is_some()).count()
    }

    /// The L1-hit transition for an access by `core` to the line in slot
    /// `slot` of the table, taken only if the core already holds the line
    /// for it: Modified by `core`; Shared with `core`'s bit, for a read; or
    /// Shared by `core` alone, for a write, which leaves it Modified by
    /// `core`. These are exactly the states [`CoherenceDirectory::access`]
    /// answers with [`AccessClass::L1Hit`], and the next state is the one it
    /// would leave. Returns whether the core held the line; if not, nothing
    /// changed.
    #[inline]
    pub(crate) fn hit_held(&mut self, slot: usize, core: usize, is_write: bool) -> bool {
        let state = self.lines.at_mut(slot);
        let bit = 1u64 << core;
        match *state {
            Some(LineState::Modified(owner)) => owner == core,
            Some(LineState::Shared(sharers)) if is_write => {
                let alone = sharers == bit;
                if alone {
                    *state = Some(LineState::Modified(core));
                }
                alone
            }
            Some(LineState::Shared(sharers)) => sharers & bit != 0,
            None => false,
        }
    }

    /// Perform a coherence access by `core` to the line containing `line_addr`
    /// (must be line-aligned by the caller) and update the directory.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    #[inline]
    pub fn access(&mut self, core: usize, line_addr: Addr, is_write: bool) -> AccessOutcome {
        assert!(core < self.num_cores, "core {core} out of range");
        let state = self.lines.get_mut(line_addr);
        let (next, outcome) = transition(*state, core, is_write);
        *state = Some(next);
        outcome
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
        let o = d.access(1, 0x1000, false);
        assert_eq!((o.class, o.previous_owner), (AccessClass::Hitm, Some(0)));
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
        let o = d.access(0, 0x80, false); // core1 now owns it
        assert_eq!((o.class, o.previous_owner), (AccessClass::Hitm, Some(1)));
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

    /// `hit_held` takes the transition `access` takes, for every state an
    /// access can meet on four cores, exactly when that is an L1 hit.
    #[test]
    fn held_hits_are_the_l1_hit_transitions() {
        let mut states = vec![None];
        states.extend((0..4).map(|c| Some(LineState::Modified(c))));
        states.extend((1..16u64).map(|s| Some(LineState::Shared(s))));
        for state in states {
            for core in 0..4 {
                for is_write in [false, true] {
                    let (next, outcome) = transition(state, core, is_write);
                    let mut d = CoherenceDirectory::with_extents(4, &[0x1000..0x1040, 0..0]);
                    *d.lines.at_mut(0) = state;
                    let held = d.hit_held(0, core, is_write);
                    let what = format!("{state:?}, core {core}, write {is_write}");
                    assert_eq!(held, outcome.class == AccessClass::L1Hit, "{what}");
                    let want = if held { Some(next) } else { state };
                    assert_eq!(*d.lines.at(0), want, "{what}: next state");
                }
            }
        }
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
