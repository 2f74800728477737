//! One line table for the machine's address space.
//!
//! [`crate::mem::SparseMemory`] keeps each cache line's bytes, and
//! [`crate::coherence::CoherenceDirectory`] each line's MESI state, in a
//! [`LineTable`], so where a line lives is decided once, here, for both.
//! A line inside the extents an image allocated (its globals and its heap's
//! high-water mark, see [`crate::image::MemoryLayout::data_extents`]) has a
//! slot indexed by `(addr − base) >> 6`; every other line — stacks, wild
//! pointers, the line 0 an access reaches by wrapping past `u64::MAX` — lives
//! in one `BTreeMap`. Every registry workload keeps all its accesses inside
//! its extents (`every_registry_access_stays_in_the_dense_part` holds them to
//! it and prints the extents), and those are a few hundred lines at most, so
//! the load/store path indexes and never searches.
//!
//! A machine builds its memory and its directory from the same extents, so a
//! line has the same slot in both tables; the machine's held-line path rests
//! on that, looking a slot up once for the line's state and its bytes (see
//! `MachineInner::access`). `dense_tables_share_every_slot` holds every
//! registry image to it.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::addr::{Addr, CACHE_LINE_SIZE};

/// Most lines the slots of one table cover, all extents together (1 MiB of
/// simulated data). An extent that would take the total past it stays in the
/// map, so a table's size follows what the image allocated, never the size
/// of the region it allocated in.
pub(crate) const MAX_DENSE_LINES: u64 = 1 << 14;

/// One line-aligned extent and where its lines start in the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    base: Addr,
    /// Bytes, a whole number of lines.
    len: u64,
    /// The slot of `base`'s line.
    first: usize,
}

/// One `T` per cache line of the address space, keyed by line address.
///
/// A line holds `blank` until it is first written through
/// [`LineTable::get_mut`]. Lines of the indexed extents have a slot from the
/// start; any other line enters the map on its first `get_mut` and stays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LineTable<T> {
    /// The indexed extents, ascending, at most [`MAX_DENSE_LINES`] lines in
    /// all.
    extents: Box<[Extent]>,
    /// One slot per line of the extents, back to back.
    slots: Box<[T]>,
    /// Every other line ever written.
    map: BTreeMap<Addr, T>,
    blank: T,
}

impl<T: Clone> LineTable<T> {
    /// A table of `blank` lines that indexes `ranges`, each rounded out to
    /// whole lines, in the order given while they fit the
    /// [`MAX_DENSE_LINES`] bound; empty ranges, those past the bound and one
    /// whose last line would end past `u64::MAX` stay in the map.
    ///
    /// # Panics
    /// Panics if two rounded ranges overlap: a line must have one home.
    pub(crate) fn new(ranges: &[Range<Addr>], blank: T) -> Self {
        let mut rounded: Vec<(Addr, Addr)> = ranges
            .iter()
            .filter(|r| r.start < r.end)
            .filter_map(|r| {
                let start = r.start & !(CACHE_LINE_SIZE - 1);
                Some((start, r.end.checked_next_multiple_of(CACHE_LINE_SIZE)?))
            })
            .collect();
        rounded.sort_unstable();
        for pair in rounded.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "dense extents overlap: {:#x}..{:#x} and {:#x}..{:#x}",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
        let mut extents = Vec::new();
        let mut lines = 0;
        for (start, end) in rounded {
            let len = end - start;
            if lines + len / CACHE_LINE_SIZE > MAX_DENSE_LINES {
                continue;
            }
            extents.push(Extent {
                base: start,
                len,
                first: lines as usize,
            });
            lines += len / CACHE_LINE_SIZE;
        }
        LineTable {
            extents: extents.into_boxed_slice(),
            slots: vec![blank.clone(); lines as usize].into_boxed_slice(),
            map: BTreeMap::new(),
            blank,
        }
    }

    /// The slot of the line at `line` (line-aligned), if an extent holds it.
    /// Two tables built from the same ranges give every line the same slot.
    #[inline]
    pub(crate) fn slot(&self, line: Addr) -> Option<usize> {
        for e in self.extents.iter() {
            let off = line.wrapping_sub(e.base);
            if off < e.len {
                return Some(e.first + (off / CACHE_LINE_SIZE) as usize);
            }
        }
        None
    }

    /// The line in slot `i`, as [`LineTable::slot`] gave it.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> &T {
        &self.slots[i]
    }

    /// The line in slot `i`, as [`LineTable::slot`] gave it, to write.
    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut T {
        &mut self.slots[i]
    }

    /// The line at `line` (line-aligned): `blank` if never written.
    #[inline]
    pub(crate) fn get(&self, line: Addr) -> &T {
        match self.slot(line) {
            Some(i) => &self.slots[i],
            None => self.map.get(&line).unwrap_or(&self.blank),
        }
    }

    /// The line at `line` (line-aligned), to write; a line outside every
    /// extent enters the map as `blank`.
    #[inline]
    pub(crate) fn get_mut(&mut self, line: Addr) -> &mut T {
        match self.slot(line) {
            Some(i) => &mut self.slots[i],
            None => self.map.entry(line).or_insert_with(|| self.blank.clone()),
        }
    }

    /// Every line the table holds: the slots, then the map in address order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().chain(self.map.values())
    }

    /// Number of lines in the map: those written outside every extent.
    #[cfg(test)]
    pub(crate) fn mapped_lines(&self) -> usize {
        self.map.len()
    }

    /// The address of every line the table holds, slots then map.
    #[cfg(test)]
    pub(crate) fn held_lines(&self) -> Vec<Addr> {
        let slots = self
            .ranges()
            .into_iter()
            .flat_map(|r| r.step_by(CACHE_LINE_SIZE as usize));
        slots.chain(self.map.keys().copied()).collect()
    }

    /// The indexed extents as address ranges, ascending.
    #[cfg(test)]
    pub(crate) fn ranges(&self) -> Vec<Range<Addr>> {
        self.extents
            .iter()
            .map(|e| e.base..e.base + e.len)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::line_of;
    use crate::coherence::CoherenceDirectory;
    use crate::machine::XorShift;
    use crate::mem::SparseMemory;

    #[test]
    fn ranges_round_out_to_whole_lines_and_empty_ones_drop() {
        let d = LineTable::new(&[0x1010..0x1041, 0x5000..0x5000, 0x9000..0x9040], 0u8);
        assert_eq!(d.ranges(), vec![0x1000..0x1080, 0x9000..0x9040]);
        assert_eq!(d.slots.len(), 3);
        assert_eq!(d.slot(0x1000), Some(0));
        assert_eq!(d.slot(0x1040), Some(1));
        assert_eq!(d.slot(0x1080), None, "one past the end is outside");
        assert_eq!(d.slot(0x9000), Some(2));
        assert_eq!(d.slot(0x8fc0), None);
    }

    /// An access that straddles an extent edge has each of its two lines at
    /// its own home: the bytes before the edge in the map, those after it in
    /// a slot, or the other way round; one wrapping past `u64::MAX` has both
    /// lines in the map.
    #[test]
    fn homes_split_at_both_edges() {
        let mut m = SparseMemory::with_extents(&[0x1000..0x1040, 0x5000..0x5000]);
        m.write(0x0ffc, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.lines.mapped_lines(), 1, "runs into the start");
        assert_eq!(m.read(0x0ffc, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 4), 0x1122_3344, "the slot's part");
        m.write(0x1039, 8, u64::MAX);
        assert_eq!(m.lines.mapped_lines(), 2, "runs off the end");
        assert_eq!(m.read(0x1039, 8), u64::MAX);
        assert_eq!(m.read(0x1040, 1), 0xff, "the map's part");
        m.write(0x0ff8, 8, 7);
        m.write(0x1038, 1, 9);
        assert_eq!(m.lines.mapped_lines(), 2, "each access within one home");
        m.write(u64::MAX - 3, 8, 0xabcd);
        assert_eq!(m.lines.mapped_lines(), 4, "wraps into line 0");
        assert_eq!(m.read(u64::MAX - 3, 8), 0xabcd);
    }

    /// A bulk copy across two extents and the gap between them puts each
    /// line it covers at that line's home.
    #[test]
    fn runs_stop_at_extent_edges() {
        let mut m = SparseMemory::with_extents(&[0x1000..0x1040, 0x2000..0x2040]);
        let bytes: Vec<u8> = (0..0x1060u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0x0ff0, &bytes);
        // 0xfc0, 0x1040..=0x1fc0 and 0x2040.
        assert_eq!(m.lines.mapped_lines(), 1 + 63 + 1);
        assert_eq!(m.read_bytes(0x0ff0, bytes.len()), bytes);
        assert_eq!(m.read_bytes(0x1030, 0x20), bytes[0x40..0x60]);
        let wrapped = m.read_bytes(u64::MAX, 0x1002);
        assert!(wrapped[..0xff1].iter().all(|&b| b == 0), "untouched");
        assert_eq!(wrapped[0xff1..], bytes[..0x11], "wraps to 0x0ff0");
    }

    #[test]
    fn extents_past_the_bound_stay_on_the_maps() {
        let big = MAX_DENSE_LINES * CACHE_LINE_SIZE;
        let d = LineTable::new(&[0..0x40, 0x1_0000..0x1_0000 + big], 0u8);
        assert_eq!(d.ranges(), vec![0..0x40], "the second would pass the bound");
        let d = LineTable::new(&[0x40..0x40 + big, 0..0], 0u8);
        assert_eq!(
            d.slots.len() as u64,
            MAX_DENSE_LINES,
            "exactly at the bound"
        );
        let d = LineTable::new(&[u64::MAX - 8..u64::MAX, 0..0], 0u8);
        assert!(d.slots.is_empty(), "the top line cannot end in range");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_extents_are_rejected() {
        let _ = LineTable::new(&[0x1000..0x1080, 0x1040..0x10c0], 0u8);
    }

    // -----------------------------------------------------------------------
    // Dense vs map lock-step: seeded access streams through a memory and a
    // directory with dense extents and through map-only twins, which must
    // agree on every outcome, every read and the final contents. The memory
    // streams also run against a byte-at-a-time model, which shares no code
    // with the line path both twins take.
    // -----------------------------------------------------------------------

    /// Streams per extent set and core count; operations per stream.
    const STREAMS: u64 = if cfg!(debug_assertions) { 6 } else { 60 };
    const OPS: u64 = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };

    /// Extent sets: a machine's two (globals starting mid-line and mid-page,
    /// heap), extents meeting edge to edge with one at address 0, an extent
    /// ending on the last line a range can round to, and none.
    fn extent_sets() -> Vec<Vec<Range<Addr>>> {
        let top = line_of(u64::MAX);
        vec![
            vec![0x60_0a08..0x60_0b31, 0x1000_0000..0x1000_3010],
            vec![0..0x100, 0x100..0x1040, 0x1080..0x1100],
            vec![top - 0x200..top],
            vec![],
        ]
    }

    /// A seeded address: inside an extent, within a dozen bytes of an
    /// extent edge, anywhere, just below `u64::MAX` or just above 0.
    fn address(rng: &mut XorShift, extents: &[Range<Addr>]) -> Addr {
        let pick = |rng: &mut XorShift| extents[rng.below(extents.len() as u64) as usize].clone();
        match rng.below(if extents.is_empty() { 3 } else { 6 }) {
            0 => rng.next(),
            1 => u64::MAX - rng.below(12),
            2 => rng.below(12),
            3 => {
                let r = pick(rng);
                r.start + rng.below(r.end - r.start)
            }
            _ => {
                let r = pick(rng);
                // Edges as `LineTable::new` rounds them.
                let edge = if rng.below(2) == 0 {
                    line_of(r.start)
                } else {
                    r.end.next_multiple_of(CACHE_LINE_SIZE)
                };
                edge.wrapping_add(rng.below(24)).wrapping_sub(12)
            }
        }
    }

    #[test]
    fn dense_memory_reads_and_writes_like_the_map() {
        for (set, extents) in extent_sets().iter().enumerate() {
            for stream in 0..STREAMS {
                let mut rng =
                    XorShift((stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ set as u64);
                let mut dense = SparseMemory::with_extents(extents);
                let mut map = SparseMemory::new();
                for op in 0..OPS {
                    let what = format!("set {set} stream {stream} op {op}");
                    let addr = address(&mut rng, extents);
                    let size = 1 + rng.below(8) as u8;
                    match rng.below(10) {
                        0..=3 => {
                            let value = rng.next();
                            dense.write(addr, size, value);
                            map.write(addr, size, value);
                        }
                        4..=7 => assert_eq!(
                            dense.read(addr, size),
                            map.read(addr, size),
                            "{what}: read {size} at {addr:#x}"
                        ),
                        8 => {
                            let bytes: Vec<u8> =
                                (0..rng.below(300)).map(|_| rng.next() as u8).collect();
                            dense.write_bytes(addr, &bytes);
                            map.write_bytes(addr, &bytes);
                        }
                        _ => {
                            let len = rng.below(300) as usize;
                            assert_eq!(
                                dense.read_bytes(addr, len),
                                map.read_bytes(addr, len),
                                "{what}: read_bytes {len} at {addr:#x}"
                            );
                        }
                    }
                }
                assert!(
                    crate::mem::tests::same_contents(&dense, &map),
                    "set {set} stream {stream}: final contents"
                );
            }
        }
    }

    /// The same seeded streams through a dense memory and a model that keeps
    /// one byte per address, written and read one byte at a time.
    #[test]
    fn dense_memory_reads_and_writes_like_a_byte_model() {
        for (set, extents) in extent_sets().iter().enumerate() {
            for stream in 0..STREAMS {
                let mut rng =
                    XorShift((stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ set as u64);
                let mut dense = SparseMemory::with_extents(extents);
                let mut model: BTreeMap<Addr, u8> = BTreeMap::new();
                let byte = |model: &BTreeMap<Addr, u8>, a: Addr| *model.get(&a).unwrap_or(&0);
                let at = |addr: Addr, i: usize| addr.wrapping_add(i as u64);
                for op in 0..OPS {
                    let what = format!("set {set} stream {stream} op {op}");
                    let addr = address(&mut rng, extents);
                    let size = 1 + rng.below(8) as u8;
                    match rng.below(10) {
                        0..=3 => {
                            let value = rng.next();
                            dense.write(addr, size, value);
                            for (i, b) in value.to_le_bytes()[..size as usize].iter().enumerate() {
                                model.insert(at(addr, i), *b);
                            }
                        }
                        4..=7 => {
                            let mut want = [0u8; 8];
                            for (i, b) in want[..size as usize].iter_mut().enumerate() {
                                *b = byte(&model, at(addr, i));
                            }
                            assert_eq!(
                                dense.read(addr, size),
                                u64::from_le_bytes(want),
                                "{what}: read {size} at {addr:#x}"
                            );
                        }
                        8 => {
                            let bytes: Vec<u8> =
                                (0..rng.below(300)).map(|_| rng.next() as u8).collect();
                            dense.write_bytes(addr, &bytes);
                            for (i, b) in bytes.iter().enumerate() {
                                model.insert(at(addr, i), *b);
                            }
                        }
                        _ => {
                            let len = rng.below(300) as usize;
                            let want: Vec<u8> =
                                (0..len).map(|i| byte(&model, at(addr, i))).collect();
                            assert_eq!(
                                dense.read_bytes(addr, len),
                                want,
                                "{what}: read_bytes {len} at {addr:#x}"
                            );
                        }
                    }
                }
                for (&a, &b) in &model {
                    assert_eq!(
                        dense.read_u8(a),
                        b,
                        "set {set} stream {stream}: byte {a:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_directory_answers_like_the_map() {
        for (set, extents) in extent_sets().iter().enumerate() {
            for cores in [1, 4, 64] {
                for stream in 0..STREAMS {
                    let mut rng =
                        XorShift((stream + 1).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ cores as u64);
                    let mut dense = CoherenceDirectory::with_extents(cores, extents);
                    let mut map = CoherenceDirectory::new(cores);
                    // A few hot cores, so lines are shared and contended.
                    let active = 1 + rng.below(cores.min(6) as u64);
                    for op in 0..OPS {
                        let line = line_of(address(&mut rng, extents));
                        let core = if rng.below(8) == 0 {
                            rng.below(cores as u64)
                        } else {
                            rng.below(active)
                        } as usize;
                        let is_write = rng.below(3) == 0;
                        assert_eq!(
                            dense.access(core, line, is_write),
                            map.access(core, line, is_write),
                            "set {set}, {cores} cores, stream {stream} op {op}: line {line:#x}"
                        );
                    }
                    assert_eq!(
                        dense.tracked_lines(),
                        map.tracked_lines(),
                        "set {set}, {cores} cores, stream {stream}: lines touched"
                    );
                }
            }
        }
    }
}
