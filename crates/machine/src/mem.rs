//! Byte-addressable memory for the simulated process.
//!
//! Inside the extents an image allocated (its globals and its heap, see
//! [`crate::image::MemoryLayout::data_extents`]) bytes live in one flat table
//! indexed by offset; everywhere else they live in 4 KiB pages of a hash
//! map. Every access the registry workloads make lands in the table, so the
//! load/store path hashes nothing; the map keeps stacks, wild pointers and
//! accesses that wrap past `u64::MAX` working.

use std::ops::Range;

use crate::addr::Addr;
use crate::dense::{DenseExtents, Home};
use crate::fasthash::FastHashMap;

const PAGE_SIZE: u64 = 4096;

/// Simulated memory. Untouched bytes read as zero, like freshly mapped
/// anonymous pages. Addresses wrap: the byte after `u64::MAX` is byte 0.
///
/// A multi-byte access inside one dense extent is one slice copy; one that
/// stays within one page outside them is one map probe; one that straddles
/// an extent edge goes byte by byte to whichever part owns each byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMemory {
    extents: DenseExtents,
    /// The bytes of every extent, back to back.
    dense: Box<[u8]>,
    pages: FastHashMap<u64, Box<[u8]>>,
}

/// Little-endian value of 1..=8 bytes, zero-extended. The fixed-length arms
/// compile the common sizes to single moves instead of a `memcpy` call.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    match bytes.len() {
        8 => buf.copy_from_slice(bytes),
        4 => buf[..4].copy_from_slice(bytes),
        2 => buf[..2].copy_from_slice(bytes),
        n => buf[..n].copy_from_slice(bytes),
    }
    u64::from_le_bytes(buf)
}

/// Store the low `bytes.len()` (1..=8) bytes of `value`, little-endian.
#[inline]
fn store_le(bytes: &mut [u8], value: u64) {
    let buf = value.to_le_bytes();
    match bytes.len() {
        8 => bytes.copy_from_slice(&buf),
        4 => bytes.copy_from_slice(&buf[..4]),
        2 => bytes.copy_from_slice(&buf[..2]),
        n => bytes.copy_from_slice(&buf[..n]),
    }
}

impl SparseMemory {
    /// An empty memory image with every address on the page map.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// An empty memory image that indexes the bytes of `extents` densely
    /// (each rounded out to whole lines, up to
    /// [`MAX_DENSE_LINES`](crate::dense::MAX_DENSE_LINES) lines in all; an
    /// extent past it stays paged) and pages the rest.
    /// It reads and writes exactly like [`SparseMemory::new`].
    ///
    /// # Panics
    /// Panics if two extents overlap.
    pub(crate) fn with_extents(extents: &[Range<Addr>]) -> Self {
        let extents = DenseExtents::new(extents);
        SparseMemory {
            dense: vec![0u8; extents.bytes()].into_boxed_slice(),
            extents,
            pages: FastHashMap::default(),
        }
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        self.pages
            .entry(page)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Read a single byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        if let Home::Dense(i) = self.extents.home(addr, 1) {
            return self.dense[i];
        }
        let off = (addr % PAGE_SIZE) as usize;
        self.pages.get(&(addr / PAGE_SIZE)).map_or(0, |p| p[off])
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        if let Home::Dense(i) = self.extents.home(addr, 1) {
            self.dense[i] = value;
            return;
        }
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE)[off] = value;
    }

    /// Read `size` bytes (1..=8) little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8.
    #[inline]
    pub fn read(&self, addr: Addr, size: u8) -> u64 {
        assert!(
            (1..=8).contains(&size),
            "access size must be 1..=8, got {size}"
        );
        let n = size as usize;
        match self.extents.home(addr, n as u64) {
            Home::Dense(i) => return load_le(&self.dense[i..i + n]),
            Home::Map => {
                let off = (addr % PAGE_SIZE) as usize;
                if off + n <= PAGE_SIZE as usize {
                    // Within one page: one map probe.
                    return self
                        .pages
                        .get(&(addr / PAGE_SIZE))
                        .map_or(0, |page| load_le(&page[off..off + n]));
                }
            }
            Home::Split => {}
        }
        let mut v: u64 = 0;
        for i in 0..size as u64 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `size` bytes (1..=8) of `value`, little-endian.
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8.
    #[inline]
    pub fn write(&mut self, addr: Addr, size: u8, value: u64) {
        assert!(
            (1..=8).contains(&size),
            "access size must be 1..=8, got {size}"
        );
        let n = size as usize;
        match self.extents.home(addr, n as u64) {
            Home::Dense(i) => return store_le(&mut self.dense[i..i + n], value),
            Home::Map => {
                let off = (addr % PAGE_SIZE) as usize;
                if off + n <= PAGE_SIZE as usize {
                    // Within one page: one map probe.
                    let page = self.page_mut(addr / PAGE_SIZE);
                    return store_le(&mut page[off..off + n], value);
                }
            }
            Home::Split => {}
        }
        for i in 0..size as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// The longest run of at most `max` bytes from `addr` with one home:
    /// inside one extent, or inside one page outside every extent. Returns
    /// the dense offset (if dense) and the run's length.
    fn run(&self, addr: Addr, max: usize) -> (Option<usize>, usize) {
        let (slot, n) = self.extents.run(addr, max as u64);
        match slot {
            Some(_) => (slot, n as usize),
            None => (None, n.min(PAGE_SIZE - addr % PAGE_SIZE) as usize),
        }
    }

    /// Copy `bytes` into memory starting at `addr`: one slice copy per
    /// extent or page it covers.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let (slot, n) = self.run(addr, rest.len());
            let (head, tail) = rest.split_at(n);
            match slot {
                Some(i) => self.dense[i..i + n].copy_from_slice(head),
                None => {
                    let off = (addr % PAGE_SIZE) as usize;
                    self.page_mut(addr / PAGE_SIZE)[off..off + n].copy_from_slice(head);
                }
            }
            addr = addr.wrapping_add(n as u64);
            rest = tail;
        }
    }

    /// The longest run of at most `max` bytes from `addr` with one home, as
    /// the bytes themselves or `None` where they read as zero (a page never
    /// touched), with its length.
    fn span(&self, addr: Addr, max: usize) -> (Option<&[u8]>, usize) {
        let (slot, n) = self.run(addr, max);
        let bytes = match slot {
            Some(i) => Some(&self.dense[i..i + n]),
            None => self.pages.get(&(addr / PAGE_SIZE)).map(|page| {
                let off = (addr % PAGE_SIZE) as usize;
                &page[off..off + n]
            }),
        };
        (bytes, n)
    }

    /// Read `len` bytes starting at `addr`: one slice copy per extent or
    /// touched page it covers.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let (mut addr, mut rest) = (addr, &mut out[..]);
        while !rest.is_empty() {
            let (bytes, n) = self.span(addr, rest.len());
            let (head, tail) = rest.split_at_mut(n);
            if let Some(bytes) = bytes {
                head.copy_from_slice(bytes);
            }
            addr = addr.wrapping_add(n as u64);
            rest = tail;
        }
        out
    }

    /// Number of pages the map holds: touched bytes outside every dense
    /// extent (for tests and capacity sanity checks).
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The dense extents of `m`, as address ranges.
    pub(crate) fn dense_ranges(m: &SparseMemory) -> Vec<Range<Addr>> {
        m.extents.ranges()
    }

    /// The base address of every page `m`'s map holds, ascending.
    fn page_bases(m: &SparseMemory) -> Vec<Addr> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the keys are sorted before anyone sees them"
        )]
        let mut bases: Vec<Addr> = m.pages.keys().map(|p| p * PAGE_SIZE).collect();
        bases.sort_unstable();
        bases
    }

    /// True if `a` and `b` read the same `len` bytes from `addr`.
    fn same_bytes(a: &SparseMemory, b: &SparseMemory, addr: Addr, len: usize) -> bool {
        let (mut addr, mut left) = (addr, len);
        while left > 0 {
            let (mine, n) = a.span(addr, left);
            let (theirs, n) = b.span(addr, n);
            let mine = mine.map(|bytes| &bytes[..n]);
            let same = match (mine, theirs) {
                (Some(x), Some(y)) => x == y,
                (Some(bytes), None) | (None, Some(bytes)) => bytes.iter().all(|&v| v == 0),
                (None, None) => true,
            };
            if !same {
                return false;
            }
            addr = addr.wrapping_add(n as u64);
            left -= n;
        }
        true
    }

    /// True if `a` and `b` read the same at every address, wherever each
    /// keeps its bytes.
    pub(crate) fn same_contents(a: &SparseMemory, b: &SparseMemory) -> bool {
        // A byte either memory ever wrote lives in one of its dense extents
        // or mapped pages, so these spans cover every address where the two
        // could read differently.
        let dense = dense_ranges(a).into_iter().chain(dense_ranges(b));
        let dense = dense.map(|r| (r.start, (r.end - r.start) as usize));
        let pages = page_bases(a).into_iter().chain(page_bases(b));
        let pages = pages.map(|base| (base, PAGE_SIZE as usize));
        dense
            .chain(pages)
            .all(|(start, len)| same_bytes(a, b, start, len))
    }

    #[test]
    fn zero_initialised() {
        let m = SparseMemory::new();
        assert_eq!(m.read(0x1234, 8), 0);
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.touched_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip_various_sizes() {
        let mut m = SparseMemory::new();
        m.write(0x1000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 4), 0x5566_7788);
        assert_eq!(m.read(0x1004, 4), 0x1122_3344);
        assert_eq!(m.read(0x1000, 1), 0x88);
        m.write(0x1002, 2, 0xabcd);
        assert_eq!(m.read(0x1000, 8) & 0xffff_0000, 0xabcd_0000);
    }

    #[test]
    fn writes_crossing_page_boundaries() {
        let mut m = SparseMemory::new();
        m.write(4094, 8, u64::MAX);
        assert_eq!(m.read(4094, 8), u64::MAX);
        assert_eq!(m.touched_pages(), 2);
    }

    /// An access straddling the top of the address space wraps to address 0
    /// (in a debug build too: no overflow panic).
    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = SparseMemory::new();
        m.write(u64::MAX - 3, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(u64::MAX - 3, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(u64::MAX - 3, 4), 0x5566_7788);
        assert_eq!(m.read(0, 4), 0x1122_3344);
        assert_eq!(m.read_u8(u64::MAX), 0x55);
        assert_eq!(m.touched_pages(), 2);
        m.write_bytes(u64::MAX, &[0xaa, 0xbb]);
        assert_eq!(m.read_bytes(u64::MAX, 2), vec![0xaa, 0xbb]);
        assert_eq!(m.read_u8(0), 0xbb);
    }

    #[test]
    fn byte_slice_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_bytes(0x2000, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x2000, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "access size")]
    fn oversized_access_panics() {
        let m = SparseMemory::new();
        let _ = m.read(0, 9);
    }
}
