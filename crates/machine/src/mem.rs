//! Byte-addressable memory for the simulated process.
//!
//! Memory is a line table (`dense.rs`) of 64-byte lines, split the way the
//! coherence directory is: a line inside the extents an image allocated (its
//! globals and its heap, see [`crate::image::MemoryLayout::data_extents`]) is
//! a slot indexed by `(addr − base) >> 6`, any other line (stacks, wild
//! pointers, line 0 past `u64::MAX`) an entry of one `BTreeMap`. An access of
//! 1–8 bytes touches one line or two adjacent ones, on one path whichever
//! home each line has.

use std::ops::Range;

use crate::addr::{line_of, line_offset, Addr, CACHE_LINE_SIZE};
use crate::dense::LineTable;

const LINE: usize = CACHE_LINE_SIZE as usize;

/// Simulated memory. Untouched bytes read as zero, like freshly mapped
/// anonymous pages. Addresses wrap: the byte after `u64::MAX` is byte 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMemory {
    pub(crate) lines: LineTable<[u8; LINE]>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self::with_extents(&[])
    }
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
    /// An empty memory image with every line in the map.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// An empty memory image that indexes the lines of `extents` (each
    /// rounded out to whole lines, up to
    /// [`MAX_DENSE_LINES`](crate::dense::MAX_DENSE_LINES) lines in all; an
    /// extent past it stays in the map) and maps the rest.
    /// It reads and writes exactly like [`SparseMemory::new`].
    ///
    /// # Panics
    /// Panics if two extents overlap.
    pub(crate) fn with_extents(extents: &[Range<Addr>]) -> Self {
        SparseMemory {
            lines: LineTable::new(extents, [0; LINE]),
        }
    }

    /// Read a single byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        self.lines.get(line_of(addr))[line_offset(addr) as usize]
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        self.lines.get_mut(line_of(addr))[line_offset(addr) as usize] = value;
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
        let (off, n) = (line_offset(addr) as usize, size as usize);
        if off + n <= LINE {
            return load_le(&self.lines.get(line_of(addr))[off..off + n]);
        }
        // The access runs into the next line (line 0 past the top).
        let mut buf = [0u8; 8];
        self.read_into(addr, &mut buf[..n]);
        u64::from_le_bytes(buf)
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
        let (off, n) = (line_offset(addr) as usize, size as usize);
        if off + n <= LINE {
            return store_le(&mut self.lines.get_mut(line_of(addr))[off..off + n], value);
        }
        // The access runs into the next line (line 0 past the top).
        self.write_bytes(addr, &value.to_le_bytes()[..n]);
    }

    /// [`SparseMemory::read`] of `size` bytes (1..=8) that lie in the line
    /// of slot `slot` (see `LineTable::slot`), `off` bytes into it.
    #[inline]
    pub(crate) fn read_in(&self, slot: usize, off: usize, size: u8) -> u64 {
        load_le(&self.lines.at(slot)[off..off + size as usize])
    }

    /// [`SparseMemory::write`] of `size` bytes (1..=8) that lie in the line
    /// of slot `slot` (see `LineTable::slot`), `off` bytes into it.
    #[inline]
    pub(crate) fn write_in(&mut self, slot: usize, off: usize, size: u8, value: u64) {
        store_le(
            &mut self.lines.at_mut(slot)[off..off + size as usize],
            value,
        );
    }

    /// Copy `bytes` into memory starting at `addr`: one slice copy per line
    /// it covers.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let off = line_offset(addr) as usize;
            let (head, tail) = rest.split_at(rest.len().min(LINE - off));
            self.lines.get_mut(line_of(addr))[off..off + head.len()].copy_from_slice(head);
            addr = addr.wrapping_add(head.len() as u64);
            rest = tail;
        }
    }

    /// Fill `out` with the bytes from `addr`: one slice copy per line.
    fn read_into(&self, addr: Addr, out: &mut [u8]) {
        let (mut addr, mut rest) = (addr, out);
        while !rest.is_empty() {
            let off = line_offset(addr) as usize;
            let (head, tail) = rest.split_at_mut(rest.len().min(LINE - off));
            head.copy_from_slice(&self.lines.get(line_of(addr))[off..off + head.len()]);
            addr = addr.wrapping_add(head.len() as u64);
            rest = tail;
        }
    }

    /// Read `len` bytes starting at `addr`: one slice copy per line it
    /// covers.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The dense extents of `m`, as address ranges.
    pub(crate) fn dense_ranges(m: &SparseMemory) -> Vec<Range<Addr>> {
        m.lines.ranges()
    }

    /// True if `a` and `b` read the same at every address, wherever each
    /// keeps its bytes.
    pub(crate) fn same_contents(a: &SparseMemory, b: &SparseMemory) -> bool {
        // A byte either memory ever wrote lives in a line one of them holds,
        // so those lines cover every address where the two could differ.
        let mut held = a.lines.held_lines();
        held.extend(b.lines.held_lines());
        held.iter().all(|&l| a.lines.get(l) == b.lines.get(l))
    }

    #[test]
    fn zero_initialised() {
        let m = SparseMemory::new();
        assert_eq!(m.read(0x1234, 8), 0);
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.lines.mapped_lines(), 0);
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
        assert_eq!(m.lines.mapped_lines(), 2);
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
        assert_eq!(m.lines.mapped_lines(), 2);
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
