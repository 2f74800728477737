//! The cache-line model that classifies true vs false sharing (Figure 5).
//!
//! Each cache line that appears in a HITM record is tracked with the byte
//! bitmap of its *previous* access. When a new access arrives, overlap between
//! the two bitmaps means the threads touched the same data — true sharing;
//! disjoint bitmaps mean they touched different data in the same line — false
//! sharing. (Figure 5 also keeps the previous access's type; a HITM record
//! already implies a remote write, so the classification never reads it and
//! the model does not store it.)

use laser_isa::program::Pc;
use laser_machine::fasthash::FastHashMap;
use laser_machine::{line_offset, Addr, CACHE_LINE_SIZE};

/// Classification of one observed sharing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// Overlapping bytes, at least one write.
    TrueSharing,
    /// Disjoint bytes of the same line, at least one write.
    FalseSharing,
}

/// Per-line state: the byte bitmap of the previous access, one word per line
/// in a hash table. Most tracked lines are one-shot: an imprecise record's
/// data address is a random unmapped line that is never seen again, so a
/// contended run tracks ~10^5 of them beside its handful of contended lines.
#[derive(Debug, Default)]
pub struct CacheLineModel {
    // Hot per-record path: deterministic fast hashing, never iterated. Keyed
    // by line *number* (`addr / 64`): the fast hash leaves a key's trailing
    // zero bits in place, and the table picks a bucket by the hash's low
    // bits, so line addresses would start every probe in 1/64 of the buckets.
    lines: FastHashMap<u64, u64>,
}

impl CacheLineModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cache lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// The bytes of its line that an access of `size` bytes at `addr`
    /// touches, clamped at the line end; empty for a zero-sized access.
    fn bitmap_for(addr: Addr, size: u8) -> u64 {
        let offset = line_offset(addr);
        let n = u64::from(size).min(CACHE_LINE_SIZE - offset);
        if n == 0 {
            0
        } else {
            (u64::MAX >> (64 - n)) << offset
        }
    }

    /// Record an access and, if the line has a previous access, classify the
    /// pair: overlapping footprints mean true sharing, disjoint footprints in
    /// the same line mean false sharing. Returns `None` for the first access
    /// to a line.
    ///
    /// A HITM record already implies that a *remote* core held the line
    /// Modified, so contention is established by the record's existence; the
    /// model only has to decide which bytes are involved, exactly as the
    /// paper's Figure 5 does. The `pc` and `is_write` arguments describe the
    /// recorded access (from the binary's load/store sets) and are retained
    /// for future heuristics, but the classification uses the byte footprint.
    pub fn observe(
        &mut self,
        addr: Addr,
        size: u8,
        is_write: bool,
        pc: Pc,
    ) -> Option<SharingClass> {
        let _ = (is_write, pc);
        let bitmap = Self::bitmap_for(addr, size);
        let prev = self.lines.insert(addr / CACHE_LINE_SIZE, bitmap)?;
        if prev & bitmap != 0 {
            Some(SharingClass::TrueSharing)
        } else {
            Some(SharingClass::FalseSharing)
        }
    }

    /// Forget everything (used between detection windows in tests).
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Fold another model's per-line state into this one, deterministically:
    /// the other map is drained into a vector and *sorted by line number*
    /// before insertion, so the merged table is independent of either map's
    /// iteration order — the sorted-merge discipline `laser-lint`'s
    /// `shard-merge` rule enforces for every cross-shard reduction.
    ///
    /// Where both models track a line, the absorbed model's (later) access
    /// wins. Under line-hash shard routing this never happens: a line's
    /// records all hash to one shard, so the maps are disjoint and absorbing
    /// every shard reconstructs exactly the inline model.
    pub fn absorb(&mut self, other: CacheLineModel) {
        let mut entries: Vec<(u64, u64)> = other.lines.into_iter().collect(); // lint:allow(hash-iter) — drained into a Vec and sorted by key before any use
        entries.sort_unstable_by_key(|(line, _)| *line);
        for (line, bitmap) in entries {
            self.lines.insert(line, bitmap);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// The definition [`CacheLineModel::bitmap_for`] is a closed form of:
    /// one bit per byte touched, stopping at the line end.
    pub fn bitmap_by_bytes(addr: Addr, size: u8) -> u64 {
        let start = line_offset(addr);
        let mut bm = 0u64;
        for i in 0..size as u64 {
            let off = start + i;
            if off >= CACHE_LINE_SIZE {
                break;
            }
            bm |= 1u64 << off;
        }
        bm
    }

    #[test]
    fn closed_form_bitmap_equals_the_per_byte_loop_everywhere() {
        for line in [0, 0x1000, 0x7fff_ffff_ffc0] {
            for offset in 0..CACHE_LINE_SIZE {
                for size in 0..=u8::MAX {
                    let addr = line + offset;
                    assert_eq!(
                        CacheLineModel::bitmap_for(addr, size),
                        bitmap_by_bytes(addr, size),
                        "offset {offset}, size {size}"
                    );
                }
            }
        }
        assert_eq!(CacheLineModel::bitmap_for(0x1008, 0), 0, "empty access");
        assert_eq!(CacheLineModel::bitmap_for(0x1000, 64), u64::MAX);
        assert_eq!(CacheLineModel::bitmap_for(0x103f, 8), 1 << 63, "clamped");
    }

    #[test]
    fn first_access_is_unclassified() {
        let mut m = CacheLineModel::new();
        assert_eq!(m.observe(0x1000, 8, true, 0x40_0000), None);
        assert_eq!(m.tracked_lines(), 1);
    }

    #[test]
    fn overlapping_write_then_read_is_true_sharing() {
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1000, 8, false, 0x40_0010),
            Some(SharingClass::TrueSharing)
        );
        // Partial overlap also counts (4-byte write within the 8 bytes).
        assert_eq!(
            m.observe(0x1004, 4, true, 0x40_0020),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn disjoint_writes_in_one_line_are_false_sharing() {
        // The Figure 5 example: a previous 2-byte write at the start of the
        // line and an incoming 4-byte write at offset 4.
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 2, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1004, 4, true, 0x40_0010),
            Some(SharingClass::FalseSharing)
        );
    }

    #[test]
    fn load_only_records_still_classify_by_footprint() {
        // Read-read sharing does not generate HITMs at all, so when two
        // load records for one line do arrive, a remote writer must exist:
        // disjoint footprints indicate false sharing, overlapping ones true
        // sharing.
        let mut m = CacheLineModel::new();
        m.observe(0x2000, 8, false, 0x40_0000);
        assert_eq!(
            m.observe(0x2008, 8, false, 0x40_0004),
            Some(SharingClass::FalseSharing)
        );
        assert_eq!(
            m.observe(0x2008, 8, false, 0x40_0008),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn repeated_overlapping_writes_classify_as_true_sharing() {
        // HITM records only exist for *inter-thread* transfers, so two
        // consecutive records hitting the same bytes — even from the same
        // sampled instruction, as in a ticket-dispenser loop — are evidence of
        // true sharing (Figure 5 keeps no thread information).
        let mut m = CacheLineModel::new();
        m.observe(0x3000, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x3000, 8, true, 0x40_0000),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn different_lines_are_independent() {
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 8, true, 0x40_0000);
        assert_eq!(m.observe(0x1040, 8, true, 0x40_0004), None);
        assert_eq!(m.tracked_lines(), 2);
        m.clear();
        assert_eq!(m.tracked_lines(), 0);
    }

    #[test]
    fn accesses_straddling_line_end_are_clamped() {
        let mut m = CacheLineModel::new();
        // Access at offset 60 of size 8: only bytes 60..63 belong to this line.
        m.observe(0x103c, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1000, 4, true, 0x40_0004),
            Some(SharingClass::FalseSharing)
        );
    }
}
