//! Workload images: a program plus its initial address space and threads.
//!
//! A [`WorkloadImage`] is the simulator's equivalent of a loaded process: the
//! program text, a memory map with code/heap/globals/stack regions, initial
//! data contents, and the set of threads to spawn (each with its entry block
//! and initial argument registers). The synthetic benchmarks in
//! `laser-workloads` each produce one of these.

use std::ops::Range;

use laser_isa::inst::Reg;
use laser_isa::program::Program;

use crate::addr::{Addr, CACHE_LINE_SIZE};
use crate::alloc::{AllocError, HeapAllocator, DEFAULT_ALIGN};
use crate::memmap::{MemoryMap, Region, RegionKind};
use crate::topology::ThreadPlacement;

/// Start of the globals (static data) region.
pub const GLOBALS_START: Addr = 0x0060_0000;
/// End of the globals region.
pub const GLOBALS_END: Addr = 0x0100_0000;
/// Start of the heap region.
pub const HEAP_START: Addr = 0x1000_0000;
/// End of the heap region.
pub const HEAP_END: Addr = 0x5000_0000;
/// Start of the (synthetic) shared-library code region.
pub const LIB_START: Addr = 0x7000_0000;
/// End of the shared-library code region.
pub const LIB_END: Addr = 0x7100_0000;
/// Base of the stack area; thread `i`'s stack occupies
/// `[STACK_AREA_BASE + i*STACK_STRIDE, … + STACK_SIZE)`.
pub const STACK_AREA_BASE: Addr = 0x7f00_0000;
/// Size of each thread stack.
pub const STACK_SIZE: Addr = 0x4_0000;
/// Distance between consecutive thread stacks.
pub const STACK_STRIDE: Addr = 0x10_0000;

/// The register that receives the thread's initial stack pointer.
pub const STACK_POINTER_REG: Reg = Reg(31);

/// A thread to be spawned when the machine starts.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Human-readable thread name.
    pub name: String,
    /// Label of the basic block where the thread begins executing.
    pub entry_label: String,
    /// Initial register values (arguments).
    pub regs: Vec<(Reg, u64)>,
}

impl ThreadSpec {
    /// Create a thread starting at the block labelled `entry_label`.
    pub fn new(name: impl Into<String>, entry_label: impl Into<String>) -> Self {
        ThreadSpec {
            name: name.into(),
            entry_label: entry_label.into(),
            regs: Vec::new(),
        }
    }

    /// Set an initial register value (builder-style).
    pub fn with_reg(mut self, reg: Reg, value: u64) -> Self {
        self.regs.push((reg, value));
        self
    }
}

/// The data-layout half of a workload image: memory map, heap allocator,
/// globals allocator and initial memory contents.
#[derive(Debug, Clone)]
pub struct MemoryLayout {
    map: MemoryMap,
    heap: HeapAllocator,
    globals_cursor: Addr,
    initial: Vec<(Addr, Vec<u8>)>,
}

impl MemoryLayout {
    fn standard(program: &Program) -> Self {
        let mut map = MemoryMap::new();
        let code_end = (program.end_pc() + 0xfff) & !0xfff;
        map.add(Region::new(
            program.base_pc(),
            code_end,
            RegionKind::AppCode,
            program.name(),
        ));
        map.add(Region::new(
            LIB_START,
            LIB_END,
            RegionKind::LibCode,
            "libshared.so",
        ));
        map.add(Region::new(
            GLOBALS_START,
            GLOBALS_END,
            RegionKind::Globals,
            "[data]",
        ));
        map.add(Region::new(
            HEAP_START,
            HEAP_END,
            RegionKind::Heap,
            "[heap]",
        ));
        MemoryLayout {
            map,
            heap: HeapAllocator::new(HEAP_START, HEAP_END),
            globals_cursor: GLOBALS_START,
            initial: Vec::new(),
        }
    }

    /// The memory map (including any stacks added for spawned threads).
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// The data allocated so far, each extent rounded out to whole lines:
    /// the globals up to the globals cursor and the heap up to its
    /// high-water mark (empty ranges where nothing was allocated). A machine
    /// indexes these lines; every other line it keeps in a `BTreeMap`.
    pub fn data_extents(&self) -> [Range<Addr>; 2] {
        let end = |cursor: Addr| cursor.next_multiple_of(CACHE_LINE_SIZE);
        [
            GLOBALS_START..end(self.globals_cursor),
            HEAP_START..end(self.heap.high_water()),
        ]
    }

    /// Allocate `size` bytes on the simulated heap. Alignments up to the
    /// allocator default (16) behave like plain `malloc`, including the
    /// chunk-header offset that produces the paper's Figure 2 layout; larger
    /// alignments behave like `posix_memalign` (the manual false-sharing fix).
    ///
    /// # Errors
    /// Returns an error if the heap is exhausted or the alignment is not a
    /// power of two.
    pub fn heap_alloc(&mut self, size: u64, align: u64) -> Result<Addr, AllocError> {
        if align <= DEFAULT_ALIGN {
            self.heap.malloc(size)
        } else {
            self.heap.malloc_aligned(size, align)
        }
    }

    /// Allocate zero-initialised global (static) data with the given
    /// alignment.
    ///
    /// # Panics
    /// Panics if the globals region is exhausted or `align` is not a power of
    /// two.
    pub fn global_alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.globals_cursor + align - 1) & !(align - 1);
        assert!(addr + size <= GLOBALS_END, "globals region exhausted");
        self.globals_cursor = addr + size;
        addr
    }

    /// Shift all subsequent heap allocations by `bytes`, modelling an
    /// incidental layout perturbation (the paper's `lu_ncb` observation).
    pub fn perturb_heap(&mut self, bytes: u64) {
        self.heap.set_perturbation(bytes);
    }

    /// Set the initial value of a 64-bit word.
    pub fn poke_u64(&mut self, addr: Addr, value: u64) {
        self.initial.push((addr, value.to_le_bytes().to_vec()));
    }

    /// Set initial memory contents from a byte slice.
    pub fn poke_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        self.initial.push((addr, bytes.to_vec()));
    }

    /// Initial memory contents as `(address, bytes)` pairs.
    pub fn initial_contents(&self) -> &[(Addr, Vec<u8>)] {
        &self.initial
    }

    fn add_stack(&mut self, tid: u32) -> Addr {
        let base = STACK_AREA_BASE + tid as u64 * STACK_STRIDE;
        let end = base + STACK_SIZE;
        self.map.add(Region::new(
            base,
            end,
            RegionKind::Stack(tid),
            format!("[stack:{tid}]"),
        ));
        // Stack grows down; leave a small red zone below the top.
        end - 64
    }
}

/// A complete workload: program, memory layout, threads and the time-dilation
/// factor used to convert simulated cycles into "benchmark time" for
/// HITM-rate computations.
#[derive(Debug, Clone)]
pub struct WorkloadImage {
    name: String,
    program: Program,
    layout: MemoryLayout,
    threads: Vec<ThreadSpec>,
    stack_tops: Vec<Addr>,
    time_dilation: f64,
    thread_placement: ThreadPlacement,
}

impl WorkloadImage {
    /// Create an image for `program` with the standard address-space layout.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        let layout = MemoryLayout::standard(&program);
        WorkloadImage {
            name: name.into(),
            program,
            layout,
            threads: Vec::new(),
            stack_tops: Vec::new(),
            time_dilation: 1.0,
            thread_placement: ThreadPlacement::default(),
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program text.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The memory layout (read-only).
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The memory layout, for allocating data and poking initial contents.
    pub fn layout_mut(&mut self) -> &mut MemoryLayout {
        &mut self.layout
    }

    /// The process memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        self.layout.map()
    }

    /// Threads to spawn.
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// The stack top assigned to thread `tid`.
    pub fn stack_top(&self, tid: usize) -> Addr {
        self.stack_tops[tid]
    }

    /// Add a thread; its stack region is created automatically.
    pub fn push_thread(&mut self, spec: ThreadSpec) {
        let tid = self.threads.len() as u32;
        let top = self.layout.add_stack(tid);
        self.stack_tops.push(top);
        self.threads.push(spec);
    }

    /// Set the time-dilation factor: one simulated cycle represents this many
    /// cycles of the full-size benchmark. The synthetic kernels run scaled
    /// down inputs, so the detector's HITM-per-second thresholds are applied
    /// to dilated time.
    pub fn set_time_dilation(&mut self, dilation: f64) {
        assert!(dilation > 0.0, "time dilation must be positive");
        self.time_dilation = dilation;
    }

    /// The time-dilation factor (1.0 if the workload runs at natural scale).
    pub fn time_dilation(&self) -> f64 {
        self.time_dilation
    }

    /// Set how the machine lays the image's threads out over the sockets
    /// (default: [`ThreadPlacement::Packed`], the pre-topology mapping).
    pub fn set_thread_placement(&mut self, placement: ThreadPlacement) {
        self.thread_placement = placement;
    }

    /// The thread placement the machine will honour.
    pub fn thread_placement(&self) -> ThreadPlacement {
        self.thread_placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_isa::ProgramBuilder;

    fn trivial_program() -> Program {
        let mut b = ProgramBuilder::new("trivial");
        let blk = b.block("main");
        b.switch_to(blk);
        b.nop();
        b.halt();
        b.finish()
    }

    #[test]
    fn standard_layout_has_all_regions() {
        let image = WorkloadImage::new("t", trivial_program());
        let map = image.memory_map();
        assert!(map.region_of(image.program().base_pc()).is_some());
        assert!(map.is_data(HEAP_START));
        assert!(map.is_data(GLOBALS_START));
        assert_eq!(map.classify_pc(LIB_START), crate::memmap::PcClass::Library);
    }

    #[test]
    fn pushing_threads_creates_stacks() {
        let mut image = WorkloadImage::new("t", trivial_program());
        image.push_thread(ThreadSpec::new("t0", "main"));
        image.push_thread(ThreadSpec::new("t1", "main").with_reg(Reg(0), 99));
        assert_eq!(image.threads().len(), 2);
        assert!(image.memory_map().is_stack(image.stack_top(0)));
        assert!(image.memory_map().is_stack(image.stack_top(1)));
        assert_ne!(image.stack_top(0), image.stack_top(1));
        assert_eq!(image.threads()[1].regs, vec![(Reg(0), 99)]);
    }

    #[test]
    fn heap_and_global_allocation() {
        let mut image = WorkloadImage::new("t", trivial_program());
        let a = image.layout_mut().heap_alloc(128, 1).unwrap();
        let b = image.layout_mut().heap_alloc(128, 64).unwrap();
        assert!((HEAP_START..HEAP_END).contains(&a));
        assert_eq!(b % 64, 0);
        let g = image.layout_mut().global_alloc(256, 64);
        assert_eq!(g % 64, 0);
        assert!((GLOBALS_START..GLOBALS_END).contains(&g));
    }

    #[test]
    fn data_extents_cover_what_was_allocated_in_whole_lines() {
        let mut image = WorkloadImage::new("t", trivial_program());
        let empty = [GLOBALS_START..GLOBALS_START, HEAP_START..HEAP_START];
        assert_eq!(image.layout().data_extents(), empty);
        let g = image.layout_mut().global_alloc(8, 8);
        let h = image.layout_mut().heap_alloc(100, 1).unwrap();
        let [globals, heap] = image.layout().data_extents();
        assert_eq!(globals, GLOBALS_START..GLOBALS_START + 64);
        assert!(globals.contains(&g));
        assert_eq!(
            heap,
            HEAP_START..HEAP_START + 128,
            "header, 100 bytes, rounded"
        );
        assert!(heap.contains(&h) && heap.contains(&(h + 99)));
    }

    #[test]
    fn initial_contents_and_dilation() {
        let mut image = WorkloadImage::new("t", trivial_program());
        image.layout_mut().poke_u64(HEAP_START + 8, 0xdead_beef);
        image.layout_mut().poke_bytes(HEAP_START + 32, &[1, 2, 3]);
        assert_eq!(image.layout().initial_contents().len(), 2);
        assert_eq!(image.time_dilation(), 1.0);
        image.set_time_dilation(5000.0);
        assert_eq!(image.time_dilation(), 5000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dilation_rejected() {
        let mut image = WorkloadImage::new("t", trivial_program());
        image.set_time_dilation(0.0);
    }
}
