//! The cache-line model that classifies true vs false sharing (Figure 5).
//!
//! Each cache line that appears in a HITM record is tracked with the bytes
//! of its *previous* access. When a new access arrives, overlap between
//! the two bitmaps means the threads touched the same data — true sharing;
//! disjoint bitmaps mean they touched different data in the same line — false
//! sharing. (Figure 5 also keeps the previous access's type; a HITM record
//! already implies a remote write, so the classification never reads it and
//! the model does not store it.)

use laser_isa::program::Pc;
use laser_machine::{line_offset, Addr, CACHE_LINE_SIZE};

/// Classification of one observed sharing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// Overlapping bytes, at least one write.
    TrueSharing,
    /// Disjoint bytes of the same line, at least one write.
    FalseSharing,
}

/// Per-line state: the footprint of every tracked line's previous access,
/// kept exactly for every line ever observed. Most tracked lines are
/// one-shot: an imprecise record's data address is a random unmapped line
/// that is never seen again, so a contended run tracks ~10^5 of them beside
/// its handful of contended lines. The table is shaped for that: a line
/// takes one ten-byte slot (line number and packed footprint) in a table
/// 7/16 to 7/8 full, split into 64 segments that double one at a time, so a
/// growth step copies about 1/64 of the lines and the table never exists
/// twice.
#[derive(Debug, Default)]
pub struct CacheLineModel {
    lines: LineTable,
}

impl CacheLineModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cache lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len
    }

    /// The bytes of its line that an access of `size` bytes at `addr`
    /// touches, clamped at the line end; empty for a zero-sized access.
    #[cfg(test)]
    fn bitmap_for(addr: Addr, size: u8) -> u64 {
        bitmap(footprint(addr, size))
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
        let print = footprint(addr, size);
        let prev = self.lines.insert(addr / CACHE_LINE_SIZE, print)?;
        if bitmap(prev) & bitmap(print) != 0 {
            Some(SharingClass::TrueSharing)
        } else {
            Some(SharingClass::FalseSharing)
        }
    }

    /// Forget everything (used between detection windows in tests).
    pub fn clear(&mut self) {
        self.lines = LineTable::default();
    }

    /// Fold another model's per-line state into this one, deterministically:
    /// the other table's lines are collected and *sorted by line number*
    /// before insertion, so the merged table is independent of where either
    /// table keeps its lines.
    ///
    /// Where both models track a line, the absorbed model's (later) access
    /// wins. Under line-hash shard routing this never happens: a line's
    /// records all hash to one shard, so the tables are disjoint and
    /// absorbing every shard reconstructs exactly the inline model.
    pub fn absorb(&mut self, other: CacheLineModel) {
        let mut entries = other.lines.entries();
        entries.sort_unstable_by_key(|(line, _)| *line);
        for (line, print) in entries {
            self.lines.insert(line, print);
        }
    }
}

/// The bytes of its line an access touches, packed as `offset | n << 6`:
/// the offset of its first byte and how many bytes it covers before the
/// line end (0 for a zero-sized access). 13 bits, rebuilt into a byte
/// bitmap by [`bitmap`] when read.
type Footprint = u16;

fn footprint(addr: Addr, size: u8) -> Footprint {
    let offset = line_offset(addr);
    let n = u64::from(size).min(CACHE_LINE_SIZE - offset);
    (offset | n << 6) as Footprint
}

/// One bit per byte a [`Footprint`] covers.
fn bitmap(print: Footprint) -> u64 {
    let offset = u32::from(print & 63);
    let n = u32::from(print >> 6);
    if n == 0 {
        0
    } else {
        (u64::MAX >> (64 - n)) << offset
    }
}

/// The line table's segments are picked by the top `SEGMENT_BITS` bits of a
/// key's [`mix`].
const SEGMENT_BITS: u32 = 6;
const SEGMENTS: usize = 1 << SEGMENT_BITS;
/// Slots each segment starts with (a power of two): 40 KiB for the whole
/// table, enough that even the first doublings each allocate less than
/// 1/32 of it.
const FIRST_SEGMENT_SLOTS: usize = 64;

/// The table's hash of a key: a xorshift that folds the key's high half
/// into its low half, then a multiply by 2^64/phi (forced odd). Both steps
/// are bijections, and the product's top bits, which pick the segment and
/// then the slot, depend on every bit of the key.
fn mix(key: u64) -> u64 {
    (key ^ (key >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An exact map from line number to [`Footprint`]: open addressing with
/// linear probing in 64 segments that each double on their own. Nothing is
/// removed but everything at once, so there are no tombstones.
#[derive(Debug, Default)]
struct LineTable {
    /// Empty until the first insertion, then `SEGMENTS` long.
    segments: Vec<Segment>,
    /// Lines tracked, over all segments.
    len: usize,
}

impl LineTable {
    /// Store `print` for `line`, returning the footprint it replaces.
    fn insert(&mut self, line: u64, print: Footprint) -> Option<Footprint> {
        // Line numbers are at most `u64::MAX / 64`, so `+ 1` cannot wrap and
        // no line is stored as the empty key.
        let key = line + 1;
        let hash = mix(key);
        if self.segments.is_empty() {
            self.segments = (0..SEGMENTS)
                .map(|_| Segment::with_slots(FIRST_SEGMENT_SLOTS))
                .collect();
        }
        let segment = &mut self.segments[(hash >> (64 - SEGMENT_BITS)) as usize];
        match segment.probe(key, hash) {
            Ok(slot) => {
                let prev = segment.slots[slot].print;
                segment.slots[slot].print = print;
                Some(prev)
            }
            Err(slot) => {
                if segment.len < segment.limit() {
                    segment.fill(slot, key, print);
                } else {
                    segment.grow();
                    segment.place(key, hash, print);
                }
                self.len += 1;
                None
            }
        }
    }

    /// Every `(line, footprint)` pair, in table order.
    fn entries(self) -> Vec<(u64, Footprint)> {
        let mut entries = Vec::with_capacity(self.len);
        for segment in self.segments {
            for slot in segment.slots.iter().copied() {
                if slot.key != 0 {
                    entries.push((slot.key - 1, slot.print));
                }
            }
        }
        entries
    }
}

/// One slot of a [`Segment`]: the line number + 1 (0 marks an empty slot)
/// and its footprint, packed into ten bytes with the footprint beside the
/// key a probe reads.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(2))]
struct Slot {
    key: u64,
    print: Footprint,
}

/// One segment of a [`LineTable`]: a power-of-two number of slots.
#[derive(Debug)]
struct Segment {
    slots: Box<[Slot]>,
    /// Occupied slots.
    len: usize,
}

impl Segment {
    fn with_slots(slots: usize) -> Self {
        Segment {
            slots: vec![Slot::default(); slots].into_boxed_slice(),
            len: 0,
        }
    }

    /// Lines the segment holds before it doubles: 7/8 of its slots.
    fn limit(&self) -> usize {
        self.slots.len() / 8 * 7
    }

    /// The slot a key's probe starts at: the hash bits below the segment's.
    fn home(&self, hash: u64) -> usize {
        ((hash << SEGMENT_BITS) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, or else the empty slot its probe ends at.
    /// The segment is never full, so the probe ends.
    fn probe(&self, key: u64, hash: u64) -> Result<usize, usize> {
        let mut slot = self.home(hash);
        loop {
            let k = self.slots[slot].key;
            if k == key {
                return Ok(slot);
            }
            if k == 0 {
                return Err(slot);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    fn fill(&mut self, slot: usize, key: u64, print: Footprint) {
        self.slots[slot] = Slot { key, print };
        self.len += 1;
    }

    /// Insert a key the segment does not hold: its probe ends at an empty
    /// slot.
    fn place(&mut self, key: u64, hash: u64, print: Footprint) {
        let (Ok(slot) | Err(slot)) = self.probe(key, hash);
        self.fill(slot, key, print);
    }

    /// Rebuild the segment with twice the slots. Only this segment's old and
    /// new slots are alive at once, about 3/64 of the table, never two
    /// tables.
    fn grow(&mut self) {
        let old = std::mem::replace(self, Segment::with_slots(self.slots.len() * 2));
        for slot in old.slots.iter().copied() {
            if slot.key != 0 {
                self.place(slot.key, mix(slot.key), slot.print);
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::detect::tests::oracle::XorShift;

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

    /// Distinct lines the lock-step test feeds: 2^17 in the release build
    /// (`cargo test --release -p laser-core detect::`), fewer unoptimised.
    const LOCK_STEP_LINES: usize = if cfg!(debug_assertions) {
        1 << 14
    } else {
        1 << 17
    };

    /// Bytes of one slot: a key and a footprint, unpadded.
    const SLOT_BYTES: usize = size_of::<Slot>();

    /// The line's segment.
    fn segment_of(line: u64) -> usize {
        (mix(line + 1) >> (64 - SEGMENT_BITS)) as usize
    }

    /// Slots of a segment; 0 before the table allocates any.
    fn slots(m: &CacheLineModel, segment: usize) -> usize {
        m.lines.segments.get(segment).map_or(0, |s| s.slots.len())
    }

    /// Slot-array bytes of the whole table.
    fn slot_bytes(m: &CacheLineModel) -> usize {
        (0..SEGMENTS).map(|s| slots(m, s)).sum::<usize>() * SLOT_BYTES
    }

    /// One access to `line` through the model and through a `BTreeMap` of
    /// per-byte bitmaps: the same class back and the same number of lines
    /// tracked. `turn` walks the access's `(offset, size)` through every
    /// pair in `0..64 x 0..=8` once per 576 calls, in an order that pairs
    /// each with many others.
    fn step(
        m: &mut CacheLineModel,
        reference: &mut BTreeMap<u64, u64>,
        line: u64,
        turn: &mut u64,
    ) -> Option<SharingClass> {
        let pair = *turn * 37 % 576;
        *turn += 1;
        let (offset, size) = (pair % 64, (pair / 64) as u8);
        let addr = line * CACHE_LINE_SIZE + offset;
        let bitmap = bitmap_by_bytes(addr, size);
        let want = reference.insert(line, bitmap).map(|prev| {
            if prev & bitmap != 0 {
                SharingClass::TrueSharing
            } else {
                SharingClass::FalseSharing
            }
        });
        let got = m.observe(addr, size, true, 0x40_0000);
        assert_eq!(got, want, "line {line:#x}, offset {offset}, size {size}");
        assert_eq!(m.tracked_lines(), reference.len(), "line {line:#x}");
        got
    }

    #[test]
    fn the_line_table_agrees_with_a_btreemap_in_lock_step() {
        let top_line = u64::MAX / CACHE_LINE_SIZE;
        let mut rng = XorShift(0x11e5_7ab1e);
        let mut m = CacheLineModel::new();
        let mut reference = BTreeMap::new();
        // Distinct lines in order of first access, overall and per segment.
        let mut seen: Vec<u64> = Vec::new();
        let mut by_segment = vec![Vec::new(); SEGMENTS];
        let mut growths = [0u32; SEGMENTS];
        let mut classes = [0u64; 3];
        let mut turn = 0;
        let mut last = 0;
        while reference.len() < LOCK_STEP_LINES {
            let line = match seen.len() {
                0 => 0,
                1 => top_line,
                _ => match rng.below(8) {
                    // A 41-bit user-space line.
                    0..=3 => rng.below(1 << 41),
                    // A kernel-range line, up to the one holding u64::MAX.
                    4 | 5 => (0xffff_8000_0000_0000 + rng.below(1 << 47)) / CACHE_LINE_SIZE,
                    // The next line up: runs of neighbours probe as clusters.
                    6 => (last + 1) & top_line,
                    // A line seen before.
                    _ => seen[rng.below(seen.len() as u64) as usize],
                },
            };
            last = line;
            let segment = segment_of(line);
            let before = slots(&m, segment);
            if !reference.contains_key(&line) {
                seen.push(line);
                by_segment[segment].push(line);
            }
            let class = step(&mut m, &mut reference, line, &mut turn);
            classes[class.map_or(0, |c| c as usize + 1)] += 1;
            if before != 0 && slots(&m, segment) != before {
                // The step rehashed every line of this segment: each must
                // still be found, with its footprint.
                growths[segment] += 1;
                for &moved in &by_segment[segment] {
                    step(&mut m, &mut reference, moved, &mut turn);
                }
            }
        }
        for &line in &seen {
            step(&mut m, &mut reference, line, &mut turn);
        }
        assert!(growths.iter().all(|&g| g >= 2), "{growths:?}");
        assert!(classes.iter().all(|&n| n > 100), "{classes:?}");
    }

    #[test]
    fn slots_cost_at_most_sixteen_bytes_a_line_and_a_step_at_most_a_32nd() {
        assert_eq!(SLOT_BYTES, 10);
        let mut rng = XorShift(0xf007_9e1e7);
        let mut m = CacheLineModel::new();
        let mut steps = 0;
        while m.tracked_lines() < 100_000 {
            let line = rng.below(1 << 41);
            let segment = segment_of(line);
            let before = slots(&m, segment);
            m.observe(line * CACHE_LINE_SIZE, 8, true, 0x40_0000);
            let after = slots(&m, segment);
            if before != 0 && after != before {
                steps += 1;
                let (step, table) = (after * SLOT_BYTES, slot_bytes(&m));
                assert!(
                    step * 32 <= table,
                    "a growth step allocated {step} of the table's {table} bytes"
                );
            }
        }
        assert!(steps >= SEGMENTS, "{steps} growth steps");
        let bytes = slot_bytes(&m);
        assert!(
            bytes <= 16 * m.tracked_lines(),
            "{bytes} slot bytes for {} lines",
            m.tracked_lines()
        );
    }
}
