//! The simulated heap allocator.
//!
//! The paper stresses that false sharing "can even arise invisibly in the
//! program due to the opaque decisions of the memory allocator": in
//! `linear_regression`, each per-thread struct is exactly 64 bytes, yet the
//! allocator's 16-byte chunk header offsets the array so that every struct
//! straddles two cache lines and neighbouring threads share both (Figure 2).
//! This allocator reproduces that behaviour: allocations are 16-byte aligned
//! and preceded by a metadata header, unless the program explicitly asks for
//! stronger alignment (the manual fix).

use crate::addr::Addr;

/// Size of the allocator's per-chunk metadata header, in bytes. Matches
/// common `malloc` implementations and produces the Figure 2 layout.
pub const CHUNK_HEADER_BYTES: u64 = 16;

/// Default allocation alignment (16 bytes, like glibc malloc).
pub const DEFAULT_ALIGN: u64 = 16;

/// Errors returned by the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The heap region is exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining.
        remaining: u64,
    },
    /// The requested alignment is not a power of two.
    BadAlignment(u64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "heap exhausted: requested {requested} bytes, {remaining} remaining"
                )
            }
            AllocError::BadAlignment(a) => write!(f, "alignment {a} is not a power of two"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A bump allocator over the simulated heap region.
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    start: Addr,
    end: Addr,
    cursor: Addr,
    /// Extra bytes added before every allocation, used to model incidental
    /// layout perturbations (the paper's `lu_ncb` case, where merely running
    /// under LASER shifted the layout and removed false sharing).
    perturbation: u64,
    allocations: Vec<(Addr, u64)>,
}

impl HeapAllocator {
    /// Create an allocator managing `[start, end)`.
    ///
    /// # Panics
    /// Panics if the region is empty.
    pub fn new(start: Addr, end: Addr) -> Self {
        assert!(start < end, "heap region must be non-empty");
        HeapAllocator {
            start,
            end,
            cursor: start,
            perturbation: 0,
            allocations: Vec::new(),
        }
    }

    /// The base address of the managed region.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// Add a fixed offset before every subsequent allocation, modelling an
    /// environment-induced layout shift.
    pub fn set_perturbation(&mut self, bytes: u64) {
        self.perturbation = bytes;
    }

    /// The high-water mark: the end of the last allocation (the region's
    /// start before the first).
    pub(crate) fn high_water(&self) -> Addr {
        self.cursor
    }

    /// The configured perturbation.
    pub fn perturbation(&self) -> u64 {
        self.perturbation
    }

    /// Allocate `size` bytes with the default (16-byte) alignment, preceded by
    /// a metadata header as a real `malloc` would be.
    ///
    /// # Errors
    /// Returns [`AllocError::OutOfMemory`] if the heap is exhausted.
    pub fn malloc(&mut self, size: u64) -> Result<Addr, AllocError> {
        self.malloc_aligned(size, DEFAULT_ALIGN)
    }

    /// Allocate `size` bytes aligned to `align` (must be a power of two).
    /// Alignments of 64 or more model `posix_memalign`-style cache-line
    /// alignment — the classic manual fix for false sharing.
    ///
    /// # Errors
    /// Returns [`AllocError::BadAlignment`] for non-power-of-two alignments
    /// and [`AllocError::OutOfMemory`] when the heap is exhausted.
    pub fn malloc_aligned(&mut self, size: u64, align: u64) -> Result<Addr, AllocError> {
        if align == 0 || !align.is_power_of_two() {
            return Err(AllocError::BadAlignment(align));
        }
        let mut base = self.cursor + self.perturbation;
        // Reserve space for the chunk header, then align the payload.
        base += CHUNK_HEADER_BYTES;
        let aligned = (base + align - 1) & !(align - 1);
        let end = aligned + size.max(1);
        if end > self.end {
            return Err(AllocError::OutOfMemory {
                requested: size,
                remaining: self.end.saturating_sub(self.cursor),
            });
        }
        self.cursor = end;
        self.allocations.push((aligned, size));
        Ok(aligned)
    }

    /// Number of allocations performed.
    pub fn num_allocations(&self) -> usize {
        self.allocations.len()
    }

    /// All allocations as `(address, size)` pairs, in allocation order.
    pub fn allocations(&self) -> &[(Addr, u64)] {
        &self.allocations
    }

    /// Bytes remaining in the heap region.
    pub fn remaining(&self) -> u64 {
        self.end.saturating_sub(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{line_of, CACHE_LINE_SIZE};

    #[test]
    fn default_malloc_offsets_payload_by_header() {
        let mut a = HeapAllocator::new(0x1000_0000, 0x1001_0000);
        let p = a.malloc(64).unwrap();
        // Payload is 16-byte aligned but NOT 64-byte aligned: a 64-byte struct
        // straddles two lines, as in the paper's Figure 2.
        assert_eq!(p % DEFAULT_ALIGN, 0);
        assert_ne!(p % CACHE_LINE_SIZE, 0);
        assert_ne!(line_of(p), line_of(p + 63));
    }

    #[test]
    fn consecutive_structs_share_a_line() {
        // An array of two 64-byte structs allocated as one chunk: the second
        // half of struct 0 and first half of struct 1 share a line.
        let mut a = HeapAllocator::new(0x1000_0000, 0x1001_0000);
        let arr = a.malloc(128).unwrap();
        let s0_last = arr + 63;
        let s1_first = arr + 64;
        assert_eq!(line_of(s0_last), line_of(s1_first));
    }

    #[test]
    fn aligned_malloc_respects_alignment() {
        let mut a = HeapAllocator::new(0x1000_0000, 0x1001_0000);
        let p = a.malloc_aligned(256, 64).unwrap();
        assert_eq!(p % 64, 0);
        let q = a.malloc_aligned(8, 4096).unwrap();
        assert_eq!(q % 4096, 0);
    }

    #[test]
    fn bad_alignment_rejected() {
        let mut a = HeapAllocator::new(0x1000, 0x2000);
        assert_eq!(a.malloc_aligned(8, 3), Err(AllocError::BadAlignment(3)));
        assert_eq!(a.malloc_aligned(8, 0), Err(AllocError::BadAlignment(0)));
    }

    #[test]
    fn out_of_memory_reported() {
        let mut a = HeapAllocator::new(0x1000, 0x1100);
        let err = a.malloc(0x1000).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn perturbation_shifts_layout() {
        let mut a = HeapAllocator::new(0x1000_0000, 0x1001_0000);
        let p1 = a.malloc(64).unwrap();
        let mut b = HeapAllocator::new(0x1000_0000, 0x1001_0000);
        b.set_perturbation(48);
        let p2 = b.malloc(64).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(b.perturbation(), 48);
    }

    #[test]
    fn accounting() {
        let mut a = HeapAllocator::new(0x1000, 0x10000);
        let before = a.remaining();
        a.malloc(100).unwrap();
        a.malloc(100).unwrap();
        assert_eq!(a.num_allocations(), 2);
        assert_eq!(a.allocations().len(), 2);
        assert!(a.remaining() < before);
    }
}
