//! The software store buffer (paper Section 5.1 and 5.5).
//!
//! Stores redirected to the SSB are kept in a thread-private, *coalescing*
//! buffer: one slot per memory word with a per-byte validity bitmap (so
//! unaligned and sub-word stores are handled correctly). Loads consult the
//! buffer first and fall back to shared memory, merging partially-buffered
//! words. A flush drains the buffer to shared memory; because coalescing can
//! reorder stores, the flush must be made visible atomically (the hook does it
//! inside a hardware transaction) to preserve TSO.
//!
//! The buffer works on words, not bytes: an access of up to 8 bytes reaches
//! at most two words, so `put` / `lookup` / `merge` place it in the 128-bit
//! window of those two and combine each half with masks and shifts. The slots
//! live in one vector in first-touch order and are found by a linear scan:
//! the hook flushes pre-emptively at nine words, and the scan stays correct
//! at any size.

use laser_machine::Addr;

/// Result of a buffer lookup for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsbLookup {
    /// Every requested byte is buffered; the value is returned directly.
    Hit(u64),
    /// No requested byte is buffered.
    Miss,
    /// Some requested bytes are buffered; the caller must read memory and
    /// overlay the buffered bytes with [`SoftwareStoreBuffer::merge`].
    Partial,
}

/// One buffered word: its 8-aligned address, its data as a little-endian
/// `u64` (byte `i` of the word is bits `8i..8i + 8`) and, in the same
/// positions, `0xff` for every byte that holds buffered data.
#[derive(Debug, Clone, Copy)]
struct WordEntry {
    key: Addr,
    data: u64,
    valid: u64,
}

/// A bit mask over the low `bytes` bytes of a word.
fn low_bytes(bytes: u32) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1 << (8 * bytes)) - 1
    }
}

/// The two words `[addr, addr + size)` can reach — the one holding `addr` and
/// the one after it, which for an access that wraps the address space is
/// word 0 — each with the access's bytes as a bit mask over it (0 for a word
/// the access does not reach), and the bit offset of `addr` in the first: the
/// access is its value shifted left by that much in the 128-bit window the
/// two words make.
fn window(addr: Addr, size: u8) -> ([(Addr, u64); 2], u32) {
    let shift = 8 * (addr & 7) as u32;
    let bits = (low_bytes(size as u32) as u128) << shift;
    let key = addr & !7;
    let words = [
        (key, bits as u64),
        (key.wrapping_add(8), (bits >> 64) as u64),
    ];
    (words, shift)
}

/// A thread-private coalescing software store buffer.
#[derive(Debug, Default)]
pub struct SoftwareStoreBuffer {
    /// The buffered words in first-touch order, which is the order a flush
    /// drains them in.
    words: Vec<WordEntry>,
}

impl SoftwareStoreBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct words currently buffered ("entries" in the paper's
    /// sense; a pre-emptive flush triggers when this exceeds the hardware
    /// transaction capacity).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Buffer a store of `size` bytes (1..=8) of `value` at `addr`. A store
    /// that wraps the address space buffers its top-word and word-0 pieces.
    ///
    /// # Panics
    /// Panics if `size` is 0 or greater than 8.
    pub fn put(&mut self, addr: Addr, size: u8, value: u64) {
        assert!((1..=8).contains(&size), "store size must be 1..=8");
        let (words, shift) = window(addr, size);
        let value = (value as u128) << shift;
        for ((key, bits), data) in words.into_iter().zip([value as u64, (value >> 64) as u64]) {
            if bits == 0 {
                continue;
            }
            let data = data & bits;
            match self.words.iter_mut().find(|w| w.key == key) {
                Some(word) => {
                    word.data = (word.data & !bits) | data;
                    word.valid |= bits;
                }
                None => self.words.push(WordEntry {
                    key,
                    data,
                    valid: bits,
                }),
            }
        }
    }

    /// The buffered bytes of `[addr, addr + size)`, positioned as in the
    /// access's value: which bits are buffered, and those bits.
    fn buffered(&self, addr: Addr, size: u8) -> (u64, u64) {
        let (words, shift) = window(addr, size);
        let (mut have, mut value) = (0u128, 0u128);
        for (half, (key, bits)) in words.into_iter().enumerate() {
            if bits == 0 {
                continue;
            }
            if let Some(word) = self.words.iter().find(|w| w.key == key) {
                have |= ((word.valid & bits) as u128) << (64 * half);
                value |= ((word.data & word.valid & bits) as u128) << (64 * half);
            }
        }
        ((have >> shift) as u64, (value >> shift) as u64)
    }

    /// Look up a load of `size` bytes at `addr`.
    pub fn lookup(&self, addr: Addr, size: u8) -> SsbLookup {
        assert!((1..=8).contains(&size), "load size must be 1..=8");
        let (have, value) = self.buffered(addr, size);
        if have == 0 {
            SsbLookup::Miss
        } else if have == low_bytes(size as u32) {
            SsbLookup::Hit(value)
        } else {
            SsbLookup::Partial
        }
    }

    /// Overlay any buffered bytes of `[addr, addr+size)` onto `memory_value`
    /// (the value just read from shared memory) and return the merged value.
    pub fn merge(&self, addr: Addr, size: u8, memory_value: u64) -> u64 {
        let (have, value) = self.buffered(addr, size);
        (memory_value & !have) | value
    }

    /// True if any byte of `[addr, addr+size)` is buffered (used by the
    /// speculative-alias runtime check).
    pub fn overlaps(&self, addr: Addr, size: u8) -> bool {
        self.buffered(addr, size.clamp(1, 8)).0 != 0
    }

    /// Drain the buffer into a list of `(addr, size, value)` writes, one per
    /// contiguous valid byte run, in first-buffered order. The buffer is empty
    /// afterwards.
    pub fn drain_writes(&mut self) -> Vec<(Addr, u8, u64)> {
        let mut out = Vec::with_capacity(self.words.len());
        for word in self.words.drain(..) {
            let mut valid = word.valid;
            while valid != 0 {
                let start = valid.trailing_zeros();
                let len = (valid >> start).trailing_ones() / 8;
                let run = low_bytes(len) << start;
                let addr = word.key + (start / 8) as u64;
                out.push((addr, len as u8, (word.data & run) >> start));
                valid &= !run;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_hit() {
        let mut ssb = SoftwareStoreBuffer::new();
        assert!(ssb.is_empty());
        ssb.put(0x1000, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(ssb.lookup(0x1000, 8), SsbLookup::Hit(0xdead_beef_cafe_f00d));
        assert_eq!(ssb.lookup(0x1000, 4), SsbLookup::Hit(0xcafe_f00d));
        assert_eq!(ssb.lookup(0x1004, 4), SsbLookup::Hit(0xdead_beef));
        assert_eq!(ssb.len(), 1);
    }

    #[test]
    fn miss_and_partial() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x1000, 4, 0x1122_3344);
        assert_eq!(ssb.lookup(0x2000, 8), SsbLookup::Miss);
        assert_eq!(ssb.lookup(0x1000, 8), SsbLookup::Partial);
        // Merge overlays the four buffered low bytes onto the memory value.
        let merged = ssb.merge(0x1000, 8, 0xaaaa_bbbb_cccc_dddd);
        assert_eq!(merged, 0xaaaa_bbbb_1122_3344);
    }

    #[test]
    fn unaligned_store_spans_words() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x1006, 4, 0xa1b2_c3d4);
        assert_eq!(ssb.lookup(0x1006, 4), SsbLookup::Hit(0xa1b2_c3d4));
        assert_eq!(ssb.len(), 2); // words 0x1000 and 0x1008
        let writes = ssb.drain_writes();
        // Two runs: bytes 6..8 of the first word, bytes 0..2 of the second.
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0], (0x1006, 2, 0xc3d4));
        assert_eq!(writes[1], (0x1008, 2, 0xa1b2));
        assert!(ssb.is_empty());
    }

    #[test]
    fn coalescing_keeps_latest_value() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x1000, 8, 1);
        ssb.put(0x1000, 8, 2);
        ssb.put(0x1000, 1, 9);
        assert_eq!(ssb.lookup(0x1000, 8), SsbLookup::Hit(9));
        assert_eq!(ssb.len(), 1);
        let writes = ssb.drain_writes();
        assert_eq!(writes, vec![(0x1000, 8, 9)]);
    }

    #[test]
    fn len_counts_distinct_words() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x1000, 8, 1);
        ssb.put(0x1008, 8, 2); // same line
        ssb.put(0x1040, 8, 3); // next line
        ssb.put(0x1044, 2, 4); // same word
        assert_eq!(ssb.len(), 3);
        assert!(ssb.overlaps(0x1008, 8));
        assert!(!ssb.overlaps(0x2000, 8));
    }

    /// A store that wraps the address space buffers the top word's piece and
    /// word 0's, and drains them as two runs. (It used to overflow `addr + i`:
    /// a panic in a debug build, a silent wrap in a release one.)
    #[test]
    fn a_store_that_wraps_the_address_space_buffers_both_its_words() {
        let mut ssb = SoftwareStoreBuffer::new();
        let addr = u64::MAX - 3;
        ssb.put(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(ssb.len(), 2);
        assert_eq!(ssb.lookup(addr, 8), SsbLookup::Hit(0x1122_3344_5566_7788));
        assert_eq!(ssb.lookup(u64::MAX, 2), SsbLookup::Hit(0x4455));
        assert_eq!(ssb.lookup(0, 4), SsbLookup::Hit(0x1122_3344));
        assert_eq!(ssb.lookup(2, 4), SsbLookup::Partial);
        assert_eq!(ssb.merge(2, 4, 0xaaaa_bbbb), 0xaaaa_1122);
        assert!(ssb.overlaps(u64::MAX, 1));
        assert!(!ssb.overlaps(4, 8));
        assert_eq!(
            ssb.drain_writes(),
            vec![(addr, 4, 0x5566_7788), (0, 4, 0x1122_3344)]
        );
        assert!(ssb.is_empty());
    }

    #[test]
    fn drain_preserves_first_buffered_order() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x3000, 8, 30);
        ssb.put(0x1000, 8, 10);
        ssb.put(0x2000, 8, 20);
        ssb.put(0x1000, 8, 11); // coalesces, does not move
        let writes = ssb.drain_writes();
        let addrs: Vec<Addr> = writes.iter().map(|w| w.0).collect();
        assert_eq!(addrs, vec![0x3000, 0x1000, 0x2000]);
        assert_eq!(writes[1].2, 11);
    }

    #[test]
    #[should_panic(expected = "store size")]
    fn zero_size_put_panics() {
        let mut ssb = SoftwareStoreBuffer::new();
        ssb.put(0x1000, 0, 0);
    }
}
