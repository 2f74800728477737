//! Dense line tables over the data an image allocated.
//!
//! Every registry workload keeps all its accesses inside its globals and its
//! heap's high-water mark (`every_registry_access_stays_in_the_dense_part`
//! holds them to it and prints the extents), and those extents are a few
//! hundred lines at most. So [`crate::mem::SparseMemory`]
//! and [`crate::coherence::CoherenceDirectory`] index an address inside
//! them — `(addr − base) >> 6` for a line — and keep their hash maps only for
//! everything else: stacks, wild pointers and accesses that wrap past
//! `u64::MAX`. Every address has exactly one home, and [`DenseExtents`] is
//! what decides it.

use std::ops::Range;

use crate::addr::{Addr, CACHE_LINE_SIZE};

/// Most lines the dense tables of one memory or directory cover, all extents
/// together (1 MiB of simulated data). An extent that would take the total
/// past it stays on the maps, so a table's size follows what the image
/// allocated, never the size of the region it allocated in.
pub(crate) const MAX_DENSE_LINES: u64 = 1 << 14;

/// One line-aligned extent and where its lines start in the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    base: Addr,
    /// Bytes, a whole number of lines.
    len: u64,
    /// Byte offset of `base` in a table of bytes.
    first: u64,
}

/// Where the bytes of one access live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Home {
    /// Wholly inside one extent, from this byte offset of the tables.
    Dense(usize),
    /// Wholly outside every extent.
    Map,
    /// Partly inside an extent and partly not (or in two extents).
    Split,
}

/// The line-aligned extents a memory or directory indexes densely, in
/// ascending address order, at most [`MAX_DENSE_LINES`] lines in all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DenseExtents {
    extents: Box<[Extent]>,
    bytes: u64,
}

impl DenseExtents {
    /// Round each non-empty range out to whole lines and keep those that fit
    /// the [`MAX_DENSE_LINES`] bound, in the order given. A range whose last
    /// line would end past `u64::MAX` stays on the maps too.
    ///
    /// # Panics
    /// Panics if two rounded ranges overlap: an address must have one home.
    pub(crate) fn new(ranges: &[Range<Addr>]) -> Self {
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
        let mut bytes = 0;
        for (start, end) in rounded {
            let len = end - start;
            if (bytes + len) / CACHE_LINE_SIZE > MAX_DENSE_LINES {
                continue;
            }
            extents.push(Extent {
                base: start,
                len,
                first: bytes,
            });
            bytes += len;
        }
        DenseExtents {
            extents: extents.into_boxed_slice(),
            bytes,
        }
    }

    /// Lines the tables cover.
    pub(crate) fn lines(&self) -> usize {
        (self.bytes / CACHE_LINE_SIZE) as usize
    }

    /// Bytes the tables cover.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes as usize
    }

    /// The table slot of the line at `line_addr` (line-aligned), if an extent
    /// holds it.
    #[inline]
    pub(crate) fn line_slot(&self, line_addr: Addr) -> Option<usize> {
        for e in self.extents.iter() {
            let off = line_addr.wrapping_sub(e.base);
            if off < e.len {
                return Some(((e.first + off) / CACHE_LINE_SIZE) as usize);
            }
        }
        None
    }

    /// Where the `size` bytes from `addr` live (`size` at least 1; an access
    /// running past `u64::MAX` wraps to byte 0).
    #[inline]
    pub(crate) fn home(&self, addr: Addr, size: u64) -> Home {
        for e in self.extents.iter() {
            let off = addr.wrapping_sub(e.base);
            if off < e.len {
                return if off + size <= e.len {
                    Home::Dense((e.first + off) as usize)
                } else {
                    Home::Split
                };
            }
            // The access starts below the extent and runs into it.
            if e.base.wrapping_sub(addr) < size {
                return Home::Split;
            }
        }
        Home::Map
    }

    /// The longest run of at most `max` bytes from `addr` with one home:
    /// `(Some(offset), n)` for `n` bytes from table offset `offset`, or
    /// `(None, n)` for `n` bytes outside every extent (stopping at the next
    /// extent's base; a run may wrap past `u64::MAX`).
    pub(crate) fn run(&self, addr: Addr, max: u64) -> (Option<usize>, u64) {
        let mut n = max;
        for e in self.extents.iter() {
            let off = addr.wrapping_sub(e.base);
            if off < e.len {
                return (Some((e.first + off) as usize), max.min(e.len - off));
            }
            n = n.min(e.base.wrapping_sub(addr));
        }
        (None, n)
    }

    /// The extents as address ranges, ascending.
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

    #[test]
    fn ranges_round_out_to_whole_lines_and_empty_ones_drop() {
        let d = DenseExtents::new(&[0x1010..0x1041, 0x5000..0x5000, 0x9000..0x9040]);
        assert_eq!(d.ranges(), vec![0x1000..0x1080, 0x9000..0x9040]);
        assert_eq!(d.lines(), 3);
        assert_eq!(d.line_slot(0x1000), Some(0));
        assert_eq!(d.line_slot(0x1040), Some(1));
        assert_eq!(d.line_slot(0x1080), None, "one past the end is outside");
        assert_eq!(d.line_slot(0x9000), Some(2));
        assert_eq!(d.line_slot(0x8fc0), None);
    }

    #[test]
    fn homes_split_at_both_edges() {
        let d = DenseExtents::new(&[0x1000..0x1040, 0x5000..0x5000]);
        assert_eq!(d.home(0x1000, 8), Home::Dense(0));
        assert_eq!(d.home(0x1038, 8), Home::Dense(0x38));
        assert_eq!(d.home(0x1039, 8), Home::Split, "runs off the end");
        assert_eq!(d.home(0x0ffc, 8), Home::Split, "runs into the start");
        assert_eq!(d.home(0x0ff8, 8), Home::Map, "ends on the last byte before");
        assert_eq!(d.home(0x1040, 8), Home::Map);
        assert_eq!(d.home(u64::MAX - 3, 8), Home::Map, "wraps into line 0");
    }

    #[test]
    fn runs_stop_at_extent_edges() {
        let d = DenseExtents::new(&[0x1000..0x1040, 0x2000..0x2040]);
        assert_eq!(d.run(0x0ff0, 100), (None, 0x10));
        assert_eq!(d.run(0x1030, 100), (Some(0x30), 0x10));
        assert_eq!(d.run(0x1040, 0x10_000), (None, 0xfc0));
        assert_eq!(d.run(0x2000, 8), (Some(0x40), 8));
        assert_eq!(d.run(0x2040, 7), (None, 7));
        assert_eq!(d.run(u64::MAX, 0x2000), (None, 0x1001), "wraps to 0x1000");
    }

    #[test]
    fn extents_past_the_bound_stay_on_the_maps() {
        let big = MAX_DENSE_LINES * CACHE_LINE_SIZE;
        let d = DenseExtents::new(&[0..0x40, 0x1_0000..0x1_0000 + big]);
        assert_eq!(d.ranges(), vec![0..0x40], "the second would pass the bound");
        let d = DenseExtents::new(&[0x40..0x40 + big, 0..0]);
        assert_eq!(d.lines() as u64, MAX_DENSE_LINES, "exactly at the bound");
        let d = DenseExtents::new(&[u64::MAX - 8..u64::MAX, 0..0]);
        assert_eq!(d.lines(), 0, "the top line cannot end in range");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_extents_are_rejected() {
        let _ = DenseExtents::new(&[0x1000..0x1080, 0x1040..0x10c0]);
    }

    // -----------------------------------------------------------------------
    // Dense vs map lock-step: seeded access streams through a memory and a
    // directory with dense extents and through map-only twins, which must
    // agree on every outcome, every read and the final contents.
    // -----------------------------------------------------------------------

    use crate::addr::line_of;
    use crate::coherence::CoherenceDirectory;
    use crate::machine::XorShift;
    use crate::mem::SparseMemory;

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
                // Edges as `DenseExtents` rounds them.
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
