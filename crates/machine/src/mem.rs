//! Sparse byte-addressable memory for the simulated process.

use crate::addr::Addr;
use crate::fasthash::FastHashMap;

const PAGE_SIZE: u64 = 4096;

/// Sparse simulated memory. Untouched bytes read as zero, like freshly mapped
/// anonymous pages. Addresses wrap: the byte after `u64::MAX` is byte 0.
///
/// Pages are keyed by a fast deterministic hasher and multi-byte accesses
/// that stay within one page (the overwhelmingly common case) touch the map
/// once, not once per byte — the simulator's load/store path funnels every
/// access through [`SparseMemory::read`] and [`SparseMemory::write`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMemory {
    pages: FastHashMap<u64, Box<[u8]>>,
}

impl SparseMemory {
    /// An empty memory image.
    pub fn new() -> Self {
        SparseMemory {
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
        let page = addr / PAGE_SIZE;
        let off = (addr % PAGE_SIZE) as usize;
        self.pages.get(&page).map(|p| p[off]).unwrap_or(0)
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let page = addr / PAGE_SIZE;
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(page)[off] = value;
    }

    /// Read `size` bytes (1..=8) little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8.
    pub fn read(&self, addr: Addr, size: u8) -> u64 {
        assert!(
            (1..=8).contains(&size),
            "access size must be 1..=8, got {size}"
        );
        let off = (addr % PAGE_SIZE) as usize;
        if off + size as usize <= PAGE_SIZE as usize {
            // Fast path: the access stays within one page — one map lookup.
            let Some(page) = self.pages.get(&(addr / PAGE_SIZE)) else {
                return 0;
            };
            let mut v: u64 = 0;
            for (i, b) in page[off..off + size as usize].iter().enumerate() {
                v |= (*b as u64) << (8 * i);
            }
            return v;
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
    pub fn write(&mut self, addr: Addr, size: u8, value: u64) {
        assert!(
            (1..=8).contains(&size),
            "access size must be 1..=8, got {size}"
        );
        let off = (addr % PAGE_SIZE) as usize;
        if off + size as usize <= PAGE_SIZE as usize {
            // Fast path: the access stays within one page — one map lookup.
            let page = self.page_mut(addr / PAGE_SIZE);
            for (i, b) in page[off..off + size as usize].iter_mut().enumerate() {
                *b = (value >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..size as u64 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Copy `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.read_u8(addr.wrapping_add(i)))
            .collect()
    }

    /// Number of touched pages (for tests and capacity sanity checks).
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
