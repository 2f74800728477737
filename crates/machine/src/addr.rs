//! Virtual addresses and cache-line arithmetic.

/// A virtual address in the simulated process.
pub type Addr = u64;

/// Cache line size in bytes (the paper's machine, like all modern x86 parts,
/// uses 64-byte lines).
pub const CACHE_LINE_SIZE: u64 = 64;

/// The address of the cache line containing `addr`.
pub fn line_of(addr: Addr) -> Addr {
    addr & !(CACHE_LINE_SIZE - 1)
}

/// The byte offset of `addr` within its cache line.
pub fn line_offset(addr: Addr) -> u64 {
    addr & (CACHE_LINE_SIZE - 1)
}

/// True if an access of `size` bytes at `addr` crosses a cache-line boundary.
/// Addresses wrap: an access that runs past the top of the address space
/// crosses from the last line into line 0.
pub fn crosses_line(addr: Addr, size: u8) -> bool {
    size > 0 && line_of(addr) != line_of(addr.wrapping_add(size as u64 - 1))
}

/// Iterate over the cache lines touched by an access of `size` bytes at
/// `addr`, in the order the access reaches them, without allocating: address
/// order, except that an access running past the top of the address space
/// wraps from the last line to line 0. Every access touches at least one
/// line. This is what the machine's access path uses; [`lines_touched`] is
/// the collecting convenience wrapper.
pub fn iter_lines_touched(addr: Addr, size: u8) -> impl Iterator<Item = Addr> {
    let first = line_of(addr);
    // The bytes from the first line's start to the access's last byte, in
    // lines (rounded up): at least one, at most five.
    let lines = (line_offset(addr) + (size as u64).max(1)).div_ceil(CACHE_LINE_SIZE);
    (0..lines).map(move |i| first.wrapping_add(i * CACHE_LINE_SIZE))
}

/// The set of cache lines touched by an access of `size` bytes at `addr`.
pub fn lines_touched(addr: Addr, size: u8) -> Vec<Addr> {
    iter_lines_touched(addr, size).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_arithmetic() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(130), 128);
        assert_eq!(line_offset(0), 0);
        assert_eq!(line_offset(63), 63);
        assert_eq!(line_offset(65), 1);
    }

    #[test]
    fn line_crossing() {
        assert!(!crosses_line(0, 8));
        assert!(!crosses_line(56, 8));
        assert!(crosses_line(60, 8));
        assert!(!crosses_line(60, 4));
        assert!(!crosses_line(100, 0));
        assert_eq!(lines_touched(60, 8), vec![0, 64]);
        assert_eq!(lines_touched(8, 8), vec![0]);
        assert_eq!(lines_touched(100, 0), vec![64]);
        assert_eq!(lines_touched(0, 255), vec![0, 64, 128, 192]);
        assert_eq!(lines_touched(63, 2), vec![0, 64]);
    }

    /// An access that runs past the top of the address space wraps into line
    /// 0: two lines, in a debug build (no overflow panic) and a release build
    /// (no empty range) alike.
    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let top_line = line_of(u64::MAX);
        assert_eq!(lines_touched(u64::MAX - 3, 8), vec![top_line, 0]);
        assert!(crosses_line(u64::MAX - 3, 8));
        assert_eq!(lines_touched(u64::MAX, 1), vec![top_line]);
        assert!(!crosses_line(u64::MAX, 1));
        assert_eq!(lines_touched(u64::MAX - 7, 8), vec![top_line]);
        assert!(!crosses_line(u64::MAX - 7, 8));
        assert_eq!(lines_touched(u64::MAX, 2), vec![top_line, 0]);
        assert!(crosses_line(u64::MAX, 2));
        assert_eq!(lines_touched(u64::MAX, 0), vec![top_line]);
        assert!(!crosses_line(u64::MAX, 0));
    }
}
