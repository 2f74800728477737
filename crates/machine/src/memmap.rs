//! The process virtual memory map (the `/proc/<pid>/maps` equivalent).
//!
//! LASERDETECT's first pipeline stages classify a HITM record's PC as
//! belonging to the application, a library, or other code, and classify its
//! data address as stack or not (Section 4.1). Both queries are answered from
//! the memory map, which this module models explicitly.

use crate::addr::Addr;

/// What a mapped region contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// The application's own code (text segment).
    AppCode,
    /// Code of a shared library the application loaded.
    LibCode,
    /// A thread's stack; the payload is the thread index.
    Stack(u32),
    /// The heap.
    Heap,
    /// Global/static data.
    Globals,
    /// Kernel or other mappings; HITM records pointing here are spurious.
    Other,
}

/// Classification of a PC by the detector's first filter stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcClass {
    /// PC inside the application's text segment.
    Application,
    /// PC inside a loaded library.
    Library,
    /// PC outside any code mapping (spurious record).
    Other,
}

/// A contiguous mapped region `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Inclusive start address.
    pub start: Addr,
    /// Exclusive end address.
    pub end: Addr,
    /// What the region holds.
    pub kind: RegionKind,
    /// Human-readable name (e.g. the mapped file).
    pub name: String,
}

impl Region {
    /// Create a region.
    pub fn new(start: Addr, end: Addr, kind: RegionKind, name: impl Into<String>) -> Self {
        assert!(start < end, "region must have positive size");
        Region {
            start,
            end,
            kind,
            name: name.into(),
        }
    }

    /// True if `addr` falls inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Size of the region in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Regions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The full memory map of the simulated process.
#[derive(Debug, Clone, Default)]
pub struct MemoryMap {
    regions: Vec<Region>,
}

impl MemoryMap {
    /// An empty map.
    pub fn new() -> Self {
        MemoryMap {
            regions: Vec::new(),
        }
    }

    /// Add a region.
    ///
    /// # Panics
    /// Panics if the new region overlaps an existing one.
    pub fn add(&mut self, region: Region) {
        for r in &self.regions {
            assert!(
                region.end <= r.start || region.start >= r.end,
                "region {:?} overlaps {:?}",
                region,
                r
            );
        }
        self.regions.push(region);
        self.regions.sort_by_key(|r| r.start);
    }

    /// All regions, ordered by start address.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// True if `addr` is inside any mapped region.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.region_of(addr).is_some()
    }

    /// Classify a program counter for the detector's first filter stage.
    pub fn classify_pc(&self, pc: Addr) -> PcClass {
        match self.region_of(pc).map(|r| r.kind) {
            Some(RegionKind::AppCode) => PcClass::Application,
            Some(RegionKind::LibCode) => PcClass::Library,
            _ => PcClass::Other,
        }
    }

    /// True if `addr` lies in some thread's stack.
    pub fn is_stack(&self, addr: Addr) -> bool {
        matches!(
            self.region_of(addr).map(|r| r.kind),
            Some(RegionKind::Stack(_))
        )
    }

    /// True if `addr` lies in the heap or global data.
    pub fn is_data(&self, addr: Addr) -> bool {
        matches!(
            self.region_of(addr).map(|r| r.kind),
            Some(RegionKind::Heap) | Some(RegionKind::Globals)
        )
    }

    /// Render the map in a `/proc/<pid>/maps`-like textual form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.regions {
            let _ = writeln!(
                out,
                "{:012x}-{:012x} {:?} {}",
                r.start, r.end, r.kind, r.name
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> MemoryMap {
        let mut m = MemoryMap::new();
        m.add(Region::new(
            0x0040_0000,
            0x0050_0000,
            RegionKind::AppCode,
            "app",
        ));
        m.add(Region::new(
            0x7f00_0000,
            0x7f10_0000,
            RegionKind::LibCode,
            "libc.so",
        ));
        m.add(Region::new(
            0x1000_0000,
            0x2000_0000,
            RegionKind::Heap,
            "[heap]",
        ));
        m.add(Region::new(
            0x7ffd_0000,
            0x7ffe_0000,
            RegionKind::Stack(0),
            "[stack:0]",
        ));
        m.add(Region::new(
            0x7ffe_0000,
            0x7fff_0000,
            RegionKind::Stack(1),
            "[stack:1]",
        ));
        m
    }

    #[test]
    fn pc_classification() {
        let m = sample_map();
        assert_eq!(m.classify_pc(0x0040_1234), PcClass::Application);
        assert_eq!(m.classify_pc(0x7f00_0042), PcClass::Library);
        assert_eq!(m.classify_pc(0xdead_beef_0000), PcClass::Other);
        assert_eq!(m.classify_pc(0x1000_0010), PcClass::Other); // heap is not code
    }

    #[test]
    fn stack_and_data_queries() {
        let m = sample_map();
        assert!(m.is_stack(0x7ffd_8000));
        assert!(!m.is_stack(0x1000_0000));
        assert!(m.is_data(0x1000_0000));
        assert!(!m.is_data(0x0040_0000));
        assert!(m.is_mapped(0x7f00_0000));
        assert!(!m.is_mapped(0x4242_4242_4242));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let mut m = sample_map();
        m.add(Region::new(
            0x0045_0000,
            0x0046_0000,
            RegionKind::Heap,
            "bad",
        ));
    }

    #[test]
    fn render_lists_each_region() {
        let m = sample_map();
        let text = m.render();
        assert_eq!(text.lines().count(), m.regions().len());
        assert!(text.contains("libc.so"));
    }

    #[test]
    fn region_basics() {
        let r = Region::new(0x100, 0x200, RegionKind::Heap, "h");
        assert_eq!(r.len(), 0x100);
        assert!(r.contains(0x100));
        assert!(!r.contains(0x200));
        assert!(!r.is_empty());
    }
}
