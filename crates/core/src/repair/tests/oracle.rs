//! The differential oracle for the word-wise [`SoftwareStoreBuffer`]: it and
//! the [`Reference`] below — the buffer as it stood before it was rebuilt
//! around words, one map probe per byte — are driven with the same calls and
//! must agree on every return value, on `len()` / `is_empty()` after every
//! call, and on the drained runs in order.

use std::collections::BTreeMap;

use laser_machine::Addr;

use super::super::{SoftwareStoreBuffer, SsbLookup};
use super::XorShift;

/// Seeded call sequences per buffer population.
const SEQUENCES: u64 = if cfg!(debug_assertions) { 150 } else { 3_000 };

#[derive(Debug, Clone, Copy, Default)]
struct RefWord {
    bytes: [u8; 8],
    valid: u8,
}

/// The per-byte buffer: a map from word address to eight bytes and a
/// validity bitmap, probed once per byte of every access, and the list of
/// words in first-touch order. Byte addresses wrap like the machine's.
#[derive(Debug, Default)]
struct Reference {
    words: BTreeMap<Addr, RefWord>,
    order: Vec<Addr>,
}

impl Reference {
    fn len(&self) -> usize {
        self.words.len()
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// `(word address, byte offset)` of byte `i` of an access at `addr`.
    fn locate(addr: Addr, i: u64) -> (Addr, usize) {
        let byte_addr = addr.wrapping_add(i);
        (byte_addr & !7, (byte_addr & 7) as usize)
    }

    fn put(&mut self, addr: Addr, size: u8, value: u64) {
        for i in 0..size as u64 {
            let (key, off) = Self::locate(addr, i);
            let entry = self.words.entry(key).or_default();
            if entry.valid == 0 && !self.order.contains(&key) {
                self.order.push(key);
            }
            entry.bytes[off] = (value >> (8 * i)) as u8;
            entry.valid |= 1 << off;
        }
    }

    fn byte(&self, addr: Addr, i: u64) -> Option<u8> {
        let (key, off) = Self::locate(addr, i);
        let entry = self.words.get(&key)?;
        (entry.valid & (1 << off) != 0).then_some(entry.bytes[off])
    }

    fn lookup(&self, addr: Addr, size: u8) -> SsbLookup {
        let mut have = 0u32;
        let mut value = 0u64;
        for i in 0..size as u64 {
            if let Some(byte) = self.byte(addr, i) {
                have += 1;
                value |= (byte as u64) << (8 * i);
            }
        }
        if have == 0 {
            SsbLookup::Miss
        } else if have == size as u32 {
            SsbLookup::Hit(value)
        } else {
            SsbLookup::Partial
        }
    }

    fn merge(&self, addr: Addr, size: u8, memory_value: u64) -> u64 {
        let mut value = memory_value;
        for i in 0..size as u64 {
            if let Some(byte) = self.byte(addr, i) {
                value &= !(0xffu64 << (8 * i));
                value |= (byte as u64) << (8 * i);
            }
        }
        value
    }

    fn overlaps(&self, addr: Addr, size: u8) -> bool {
        !matches!(self.lookup(addr, size.clamp(1, 8)), SsbLookup::Miss)
    }

    fn drain_writes(&mut self) -> Vec<(Addr, u8, u64)> {
        let mut out = Vec::new();
        for key in std::mem::take(&mut self.order) {
            let Some(entry) = self.words.remove(&key) else {
                continue;
            };
            let mut i = 0usize;
            while i < 8 {
                if entry.valid & (1 << i) == 0 {
                    i += 1;
                    continue;
                }
                let start = i;
                let mut value = 0u64;
                let mut len = 0u8;
                while i < 8 && entry.valid & (1 << i) != 0 {
                    value |= (entry.bytes[i] as u64) << (8 * len);
                    len += 1;
                    i += 1;
                }
                out.push((key + start as u64, len, value));
            }
        }
        self.words.clear();
        out
    }
}

/// The buffer under test and the reference, called together.
#[derive(Default)]
struct Pair {
    ssb: SoftwareStoreBuffer,
    reference: Reference,
}

impl Pair {
    fn assert_same_size(&self, what: &str) {
        assert_eq!(self.ssb.len(), self.reference.len(), "{what}: len");
        assert_eq!(
            self.ssb.is_empty(),
            self.reference.is_empty(),
            "{what}: is_empty"
        );
    }

    fn put(&mut self, addr: Addr, size: u8, value: u64) {
        self.ssb.put(addr, size, value);
        self.reference.put(addr, size, value);
        self.assert_same_size(&format!("put({addr:#x}, {size}, {value:#x})"));
    }

    /// Every read-only call on `[addr, addr + size)`.
    fn read(&self, addr: Addr, size: u8, memory_value: u64) {
        let what = format!("({addr:#x}, {size})");
        assert_eq!(
            self.ssb.lookup(addr, size),
            self.reference.lookup(addr, size),
            "lookup{what}"
        );
        assert_eq!(
            self.ssb.merge(addr, size, memory_value),
            self.reference.merge(addr, size, memory_value),
            "merge{what} onto {memory_value:#x}"
        );
        assert_eq!(
            self.ssb.overlaps(addr, size),
            self.reference.overlaps(addr, size),
            "overlaps{what}"
        );
    }

    fn drain(&mut self) {
        assert_eq!(
            self.ssb.drain_writes(),
            self.reference.drain_writes(),
            "drained runs"
        );
        self.assert_same_size("after a drain");
        assert!(self.ssb.is_empty());
    }
}

const SIZES: std::ops::RangeInclusive<u8> = 1..=8;

/// Every `(offset, size)` access over two words — inside a word, across the
/// word boundary, and (at `base + 48`) across a line boundary — stored into
/// an empty buffer and into one that holds every other such store, then read
/// back through every `(offset, size)`.
#[test]
fn every_offset_and_size_agrees_with_the_per_byte_buffer() {
    // The last base's second word is word 0: its straddling stores wrap.
    for base in [0x1000, 0x1030, u64::MAX - 7] {
        let mut rng = XorShift(base | 1);
        let mut crowded = Pair::default();
        for offset in 0..16u64 {
            for size in SIZES {
                let addr = base.wrapping_add(offset);
                let value = rng.next();
                let mut alone = Pair::default();
                alone.put(addr, size, value);
                crowded.put(addr, size, value);
                for pair in [&alone, &crowded] {
                    for read_offset in 0..16u64 {
                        for read_size in SIZES {
                            pair.read(base.wrapping_add(read_offset), read_size, !value);
                        }
                    }
                }
                alone.drain();
            }
        }
        crowded.drain();
    }
}

/// Seeded call sequences over pools of 0, 1, 9 and 200 distinct words (the
/// hook flushes at nine; the buffer must not care): stores that coalesce
/// over and over, straddle words and lines, wrap the address space, with
/// reads and drains in between.
#[test]
fn seeded_call_sequences_agree_with_the_per_byte_buffer() {
    for pool_words in [0u64, 1, 9, 200] {
        for seed in 1..=SEQUENCES {
            let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ pool_words);
            // The pool: runs of adjacent words (so accesses straddle), some
            // starting 8 bytes under a line boundary, one run across the top
            // of the address space.
            let pool: Vec<Addr> = (0..pool_words)
                .map(|word| match word % 5 {
                    0 => (u64::MAX - 15).wrapping_add(8 * (word / 5 % 4)),
                    1 => 0x4_0038 + 0x400 * (word / 5) + 8 * (word % 2),
                    _ => 0x1_0000 + 8 * word,
                })
                .collect();
            let addr_in = |rng: &mut XorShift| match pool.len() as u64 {
                0 => rng.next(),
                len => pool[rng.below(len) as usize].wrapping_add(rng.below(8)),
            };
            let mut pair = Pair::default();
            for _ in 0..40 + rng.below(80) {
                let addr = addr_in(&mut rng);
                let size = 1 + rng.below(8) as u8;
                match rng.below(20) {
                    0 => pair.drain(),
                    1..=11 if pool_words > 0 => pair.put(addr, size, rng.next()),
                    _ => pair.read(addr, size, rng.next()),
                }
            }
            pair.drain();
        }
    }
}
