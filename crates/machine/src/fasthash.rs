//! A fast, deterministic hasher for the simulator's address-keyed maps.
//!
//! The coherence directory and sparse memory key their maps by line address
//! and page number — small integers on the machine's hottest path. The
//! standard library's default SipHash is DoS-resistant but costs tens of
//! cycles per lookup, which the hot loop pays several times per simulated
//! memory access. These maps are never exposed to untrusted keys and are
//! never iterated (only counted), so a cheap multiply-rotate hash is both
//! safe and behavior-preserving: every observable output of the machine is
//! independent of map iteration order.
//!
//! The mixing function is the classic Fx hash (one wrapping multiply by a
//! golden-ratio-derived odd constant per word, with a rotate to spread low
//! bits), seeded identically on every run so simulations stay deterministic.
//! `finish` folds the product's high bits into its low ones: a product keeps
//! its key's trailing zero bits, and the standard map picks a key's first
//! bucket from the low bits, so unfolded, every line address (six zero low
//! bits) would start probing at a bucket index divisible by 64.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: 2^64 / phi, forced odd — the classic Fibonacci hashing
/// constant.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A non-cryptographic word-at-a-time hasher (Fx-style).
#[derive(Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The top bits, which the map keeps as each entry's tag, are the
        // product's own.
        self.hash ^ (self.hash >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]: zero-sized, identical on every run.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`]: deterministic hashing, O(1)
/// lookups for the hot per-access paths. Its iteration order still depends
/// on insertion history and capacity, so — like any hash map in this
/// workspace — it must never be *iterated* on a path that reaches simulated
/// state or emitted bytes (`clippy::iter_over_hash_type` and the
/// `disallowed-methods` list in `clippy.toml` enforce this).
#[expect(
    clippy::disallowed_types,
    reason = "the one place a std map is named: its hasher is fixed, so lookups are deterministic"
)]
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` hashed through [`FastHasher`]; same determinism caveats as
/// [`FastHashMap`].
#[expect(
    clippy::disallowed_types,
    reason = "the one place a std set is named: its hasher is fixed, so lookups are deterministic"
)]
pub type FastHashSet<T> = std::collections::HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let b1 = FastBuildHasher::default();
        let b2 = FastBuildHasher::default();
        for k in [0u64, 1, 64, 4096, u64::MAX] {
            assert_eq!(b1.hash_one(k), b2.hash_one(k));
        }
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        // Line addresses are 64-byte aligned; make sure aligned keys spread.
        let b = FastBuildHasher::default();
        let mut seen = BTreeSet::new();
        for i in 0..10_000u64 {
            seen.insert(b.hash_one(i * 64));
        }
        assert_eq!(seen.len(), 10_000);
    }

    /// The map starts probing at `hash & (buckets - 1)`: line-aligned keys
    /// must spread over those low bits, not only differ somewhere.
    #[test]
    fn line_aligned_keys_spread_over_the_low_bits() {
        const BUCKETS: usize = 1024;
        let b = FastBuildHasher::default();
        let mut load = [0u32; BUCKETS];
        for i in 0..10_000u64 {
            load[(b.hash_one(i * 64) as usize) % BUCKETS] += 1;
        }
        let empty = load.iter().filter(|&&n| n == 0).count();
        let fullest = load.iter().copied().max().unwrap_or(0);
        // About 10 keys a bucket: uniform hashing leaves next to no bucket
        // empty and none much above twice the mean. Without the fold, only
        // every 64th bucket is ever a start.
        assert!(empty <= 4, "{empty} of {BUCKETS} buckets never a start");
        assert!(fullest <= 25, "a bucket starts {fullest} of 10,000 probes");
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..1000 {
            m.insert(i * 4096, i as u32);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&(i * 4096)), Some(&(i as u32)));
        }
    }

    #[test]
    fn byte_writes_match_word_writes_for_aligned_input() {
        // HashMap<u64, _> hashes via write_u64; the generic write() path only
        // needs to be self-consistent, not identical — but check it mixes.
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3]);
        let a = h.finish();
        let mut h = FastHasher::default();
        h.write(&[3, 2, 1]);
        assert_ne!(a, h.finish());
    }
}
