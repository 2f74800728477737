//! Property-style tests of the core data structures and invariants:
//! the software store buffer must be equivalent to writing through to memory,
//! lookups must never invent data, and the simulator must be deterministic.
//!
//! The original seed used `proptest`; the build environment has no crates.io
//! access, so the same properties are exercised with a small deterministic
//! case generator (fixed seeds, many cases) instead of shrinking strategies.

use std::collections::BTreeMap;

use laser::core::repair::ssb::{SoftwareStoreBuffer, SsbLookup};
use laser::isa::inst::{Operand, Reg};
use laser::isa::ProgramBuilder;
use laser::machine::{Machine, MachineConfig, ThreadSpec, WorkloadImage};

/// A tiny deterministic generator (splitmix64) standing in for proptest
/// strategies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// A store op: address within a few cache lines, size 1..=8, masked value.
    fn store_op(&mut self) -> (u64, u8, u64) {
        let addr = self.range(0x1000, 0x1100);
        let size = self.range(1, 9) as u8;
        let raw = self.next();
        let value = if size >= 8 {
            raw
        } else {
            raw & ((1u64 << (8 * size)) - 1)
        };
        (addr, size, value)
    }
}

/// A reference "memory" for the SSB equivalence property.
#[derive(Default)]
struct RefMem {
    bytes: BTreeMap<u64, u8>,
}

impl RefMem {
    fn write(&mut self, addr: u64, size: u8, value: u64) {
        for i in 0..size as u64 {
            self.bytes.insert(addr + i, (value >> (8 * i)) as u8);
        }
    }
    fn read(&self, addr: u64, size: u8) -> u64 {
        let mut v = 0u64;
        for i in 0..size as u64 {
            v |= (*self.bytes.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i);
        }
        v
    }
}

/// Buffering stores in the SSB and flushing them produces exactly the same
/// memory image as writing them straight through, regardless of aliasing,
/// overlap or access size — the single-threaded-semantics invariant of
/// Section 5.2.
#[test]
fn ssb_flush_is_equivalent_to_write_through() {
    for seed in 0..200u64 {
        let mut g = Gen(seed);
        let n = g.range(1, 60) as usize;
        let mut ssb = SoftwareStoreBuffer::new();
        let mut direct = RefMem::default();
        let mut backing = RefMem::default();
        for _ in 0..n {
            let (addr, size, value) = g.store_op();
            direct.write(addr, size, value);
            ssb.put(addr, size, value);
        }
        for (addr, size, value) in ssb.drain_writes() {
            backing.write(addr, size, value);
        }
        assert!(ssb.is_empty());
        for addr in 0x1000u64..0x1110 {
            assert_eq!(
                direct.read(addr, 1),
                backing.read(addr, 1),
                "seed {seed}: byte at {addr:#x}"
            );
        }
    }
}

/// Loads served from the SSB always see the latest buffered value, and
/// lookups never invent data: a miss means no byte of the range was buffered.
#[test]
fn ssb_lookup_agrees_with_write_through() {
    for seed in 0..200u64 {
        let mut g = Gen(seed ^ 0xABCD);
        let n = g.range(1, 40) as usize;
        let mut ssb = SoftwareStoreBuffer::new();
        let mut direct = RefMem::default();
        let mut ops = Vec::new();
        for _ in 0..n {
            let (addr, size, value) = g.store_op();
            direct.write(addr, size, value);
            ssb.put(addr, size, value);
            ops.push((addr, size));
        }
        for (addr, size) in ops {
            match ssb.lookup(addr, size) {
                SsbLookup::Hit(v) => assert_eq!(v, direct.read(addr, size), "seed {seed}"),
                SsbLookup::Partial => {
                    // Merge over two distinct backgrounds. A buffered byte
                    // overrides both backgrounds identically (and must match
                    // the write-through image); an unbuffered byte shows each
                    // background untouched. This catches a merge() that
                    // ignores the buffer: its output would track the
                    // background on every byte.
                    let m0 = ssb.merge(addr, size, 0);
                    let m1 = ssb.merge(addr, size, u64::MAX);
                    let reference = direct.read(addr, size);
                    let mut buffered_bytes = 0;
                    for i in 0..size as u64 {
                        let b0 = (m0 >> (8 * i)) & 0xff;
                        let b1 = (m1 >> (8 * i)) & 0xff;
                        let rbyte = (reference >> (8 * i)) & 0xff;
                        if b0 == b1 {
                            buffered_bytes += 1;
                            assert_eq!(b0, rbyte, "seed {seed}: buffered byte {i}");
                        } else {
                            assert!(
                                b0 == 0 && b1 == 0xff,
                                "seed {seed}: unbuffered byte {i} must show the background"
                            );
                        }
                    }
                    // Partial means some — but not all — bytes are buffered.
                    assert!(
                        buffered_bytes > 0 && buffered_bytes < size as u64,
                        "seed {seed}: partial lookup with {buffered_bytes}/{size} buffered"
                    );
                }
                SsbLookup::Miss => {
                    assert!(!ssb.overlaps(addr, size), "seed {seed}");
                }
            }
        }
    }
}

/// The machine is deterministic: the same image run twice produces the same
/// cycle count, statistics and memory contents.
#[test]
fn machine_execution_is_deterministic() {
    for seed in 0..12u64 {
        let mut g = Gen(seed.wrapping_mul(0x5DEECE66D));
        let iters = g.range(1, 200);
        let nthreads = g.range(2, 4) as usize;
        let offsets: Vec<u64> = (0..nthreads).map(|_| g.range(0, 8)).collect();

        let mut b = ProgramBuilder::new("prop");
        b.source("prop.c", 1);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.mem_add(Reg(0), 0, Operand::Imm(1), 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = WorkloadImage::new("prop", program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        for (t, off) in offsets.iter().enumerate() {
            image.push_thread(
                ThreadSpec::new(format!("t{t}"), "entry").with_reg(Reg(0), base + off * 8),
            );
        }
        let mut a = Machine::new(MachineConfig::default(), &image);
        let mut c = Machine::new(MachineConfig::default(), &image);
        let ra = a.run_to_completion().unwrap();
        let rc = c.run_to_completion().unwrap();
        assert_eq!(ra.cycles, rc.cycles, "seed {seed}");
        assert_eq!(ra.stats, rc.stats, "seed {seed}");
        for off in &offsets {
            assert_eq!(
                a.read_u64(base + off * 8),
                c.read_u64(base + off * 8),
                "seed {seed}"
            );
        }
    }
}

/// Coherence bookkeeping: every access is counted exactly once, so the outcome
/// classes partition the memory accesses.
#[test]
fn access_classes_partition_memory_accesses() {
    for seed in 0..12u64 {
        let mut g = Gen(seed ^ 0x0051_CADE);
        let iters = g.range(1, 150);
        let threads = g.range(1, 4) as usize;
        let mut b = ProgramBuilder::new("partition");
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.load(Reg(1), Reg(0), 0, 8);
        b.store(Operand::Reg(Reg(1)), Reg(0), 8, 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = WorkloadImage::new("partition", program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        for t in 0..threads {
            image.push_thread(ThreadSpec::new(format!("t{t}"), "entry").with_reg(Reg(0), base));
        }
        let mut m = Machine::new(MachineConfig::default(), &image);
        let r = m.run_to_completion().unwrap();
        let accesses = r.stats.loads + r.stats.stores + r.stats.atomics;
        let classified =
            r.stats.l1_hits + r.stats.llc_hits + r.stats.hitm_events + r.stats.dram_accesses;
        assert_eq!(accesses, classified, "seed {seed}");
        assert_eq!(
            r.stats.hitm_events,
            r.stats.hitm_loads + r.stats.hitm_stores,
            "seed {seed}"
        );
    }
}
