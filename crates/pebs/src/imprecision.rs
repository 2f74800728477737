//! The Haswell HITM-record imprecision model (paper Section 3.1, Figure 3).
//!
//! The paper characterizes Haswell's HITM PEBS records with 160 assembly test
//! cases and finds:
//!
//! * for **load-triggered** events (read-write sharing), roughly 75 % of
//!   records carry the correct data address and roughly 40 % the exact PC,
//!   with another ≈30 % pointing at an adjacent instruction;
//! * for **store-triggered** events (write-write sharing), records are highly
//!   inaccurate for both fields (the precise event is defined for load uops;
//!   stores complete late out of the store buffer);
//! * over 99 % of incorrect PCs still point somewhere inside the program's
//!   binary;
//! * 95 % of incorrect data addresses point at unmapped parts of the address
//!   space, the rest at the stack or kernel.
//!
//! [`ImprecisionModel`] reproduces those distributions so that LASERDETECT's
//! filtering pipeline has the same noise to contend with as on real hardware.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use laser_machine::memmap::RegionKind;
use laser_machine::{Addr, HitmEvent, MemAccessKind, MemoryMap};

use crate::record::HitmRecord;

/// Probabilities governing record accuracy, separately for load-triggered and
/// store-triggered HITM events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprecisionParams {
    /// P(correct data address) for load-triggered events.
    pub load_addr_correct: f64,
    /// P(exact PC) for load-triggered events.
    pub load_pc_exact: f64,
    /// P(adjacent PC | not exact) contribution for load-triggered events,
    /// expressed as an absolute probability.
    pub load_pc_adjacent: f64,
    /// P(correct data address) for store-triggered events.
    pub store_addr_correct: f64,
    /// P(exact PC) for store-triggered events.
    pub store_pc_exact: f64,
    /// P(adjacent PC) for store-triggered events (absolute).
    pub store_pc_adjacent: f64,
    /// Of the wrong PCs, the fraction that still lies inside the binary.
    pub wrong_pc_in_binary: f64,
    /// Of the wrong data addresses, the fraction that points at unmapped
    /// memory (the remainder is split between stack and kernel addresses).
    pub wrong_addr_unmapped: f64,
}

impl Default for ImprecisionParams {
    /// Values calibrated to the averages reported in the paper's Figure 3.
    fn default() -> Self {
        ImprecisionParams {
            load_addr_correct: 0.75,
            load_pc_exact: 0.40,
            load_pc_adjacent: 0.30,
            store_addr_correct: 0.08,
            store_pc_exact: 0.10,
            store_pc_adjacent: 0.24,
            wrong_pc_in_binary: 0.99,
            wrong_addr_unmapped: 0.95,
        }
    }
}

impl ImprecisionParams {
    /// A model with no imprecision at all; useful for unit tests and for
    /// isolating pipeline behaviour from hardware noise.
    pub fn perfect() -> Self {
        ImprecisionParams {
            load_addr_correct: 1.0,
            load_pc_exact: 1.0,
            load_pc_adjacent: 0.0,
            store_addr_correct: 1.0,
            store_pc_exact: 1.0,
            store_pc_adjacent: 0.0,
            wrong_pc_in_binary: 1.0,
            wrong_addr_unmapped: 1.0,
        }
    }
}

/// Applies Haswell's record imprecision to ground-truth HITM events.
#[derive(Debug)]
pub struct ImprecisionModel {
    params: ImprecisionParams,
    rng: StdRng,
    code_range: (Addr, Addr),
    stack_ranges: Vec<(Addr, Addr)>,
    mapped_ranges: Vec<(Addr, Addr)>,
}

impl ImprecisionModel {
    /// Build a model. `code_range` is the application text segment (used to
    /// generate plausible wrong-but-in-binary PCs); stack and mapped ranges are
    /// taken from `map` to generate wrong data addresses with the measured
    /// distribution.
    pub fn new(
        params: ImprecisionParams,
        map: &MemoryMap,
        code_range: (Addr, Addr),
        seed: u64,
    ) -> Self {
        let stack_ranges = map
            .regions()
            .iter()
            .filter(|r| matches!(r.kind, RegionKind::Stack(_)))
            .map(|r| (r.start, r.end))
            .collect();
        let mapped_ranges = map.regions().iter().map(|r| (r.start, r.end)).collect();
        ImprecisionModel {
            params,
            rng: StdRng::seed_from_u64(seed),
            code_range,
            stack_ranges,
            mapped_ranges,
        }
    }

    /// The parameters in effect.
    pub fn params(&self) -> &ImprecisionParams {
        &self.params
    }

    /// A random instruction of the binary other than `exclude`. A code
    /// range of fewer than two instructions may hold no such PC, so the
    /// wrong PC then lands outside the binary (its one instruction, if that
    /// is not `exclude`, is taken without a draw).
    fn random_in_binary_pc(&mut self, exclude: Addr) -> Addr {
        let (lo, hi) = self.code_range;
        let slots = hi.saturating_sub(lo) / 4;
        if slots < 2 {
            return if slots == 1 && lo != exclude {
                lo
            } else {
                self.random_unmapped_addr()
            };
        }
        loop {
            let pc = lo + self.rng.gen_range(0..slots) * 4;
            if pc != exclude {
                return pc;
            }
        }
    }

    fn random_unmapped_addr(&mut self) -> Addr {
        // Draw until we find an address outside every mapped region; the vast
        // majority of the 48-bit space is unmapped so this terminates quickly.
        loop {
            let a: u64 = self.rng.gen_range(0x1_0000..0x7fff_ffff_f000u64);
            if !self.mapped_ranges.iter().any(|&(lo, hi)| a >= lo && a < hi) {
                return a;
            }
        }
    }

    fn random_stack_addr(&mut self) -> Addr {
        if self.stack_ranges.is_empty() {
            return self.random_unmapped_addr();
        }
        let idx = self.rng.gen_range(0..self.stack_ranges.len());
        let (lo, hi) = self.stack_ranges[idx];
        self.rng.gen_range(lo..hi)
    }

    fn random_kernel_addr(&mut self) -> Addr {
        0xffff_8000_0000_0000 | self.rng.gen_range(0..0x1_0000_0000u64)
    }

    fn distort_pc(&mut self, pc: Addr, exact_p: f64, adjacent_p: f64) -> Addr {
        let roll: f64 = self.rng.gen();
        if roll < exact_p {
            pc
        } else if roll < exact_p + adjacent_p {
            // Adjacent instruction: the next (or previous) PC.
            if self.rng.gen_bool(0.5) {
                pc + laser_isa::program::INST_BYTES
            } else {
                pc.saturating_sub(laser_isa::program::INST_BYTES)
            }
        } else if self.rng.gen_bool(self.params.wrong_pc_in_binary) {
            self.random_in_binary_pc(pc)
        } else {
            self.random_unmapped_addr()
        }
    }

    fn distort_addr(&mut self, addr: Addr, correct_p: f64) -> Addr {
        if self.rng.gen_bool(correct_p) {
            return addr;
        }
        if self.rng.gen_bool(self.params.wrong_addr_unmapped) {
            self.random_unmapped_addr()
        } else if self.rng.gen_bool(0.5) {
            self.random_stack_addr()
        } else {
            self.random_kernel_addr()
        }
    }

    /// Convert a ground-truth HITM event into the (possibly imprecise) record
    /// the hardware would deliver.
    pub fn distort(&mut self, event: &HitmEvent) -> HitmRecord {
        let (addr_p, pc_exact, pc_adj) = match event.kind {
            MemAccessKind::Load => (
                self.params.load_addr_correct,
                self.params.load_pc_exact,
                self.params.load_pc_adjacent,
            ),
            MemAccessKind::Store => (
                self.params.store_addr_correct,
                self.params.store_pc_exact,
                self.params.store_pc_adjacent,
            ),
        };
        HitmRecord {
            pc: self.distort_pc(event.pc, pc_exact, pc_adj),
            data_addr: self.distort_addr(event.addr, addr_p),
            core: event.core,
            cycle: event.cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_machine::memmap::Region;
    use laser_machine::CoreId;

    fn test_map() -> MemoryMap {
        let mut m = MemoryMap::new();
        m.add(Region::new(
            0x40_0000,
            0x50_0000,
            RegionKind::AppCode,
            "app",
        ));
        m.add(Region::new(
            0x1000_0000,
            0x2000_0000,
            RegionKind::Heap,
            "[heap]",
        ));
        m.add(Region::new(
            0x7f00_0000,
            0x7f10_0000,
            RegionKind::Stack(0),
            "[stack:0]",
        ));
        m
    }

    fn event(kind: MemAccessKind) -> HitmEvent {
        HitmEvent {
            core: CoreId(1),
            pc: 0x40_0100,
            addr: 0x1000_0040,
            size: 8,
            kind,
            cycle: 7,
        }
    }

    #[test]
    fn perfect_model_preserves_fields() {
        let map = test_map();
        let mut m = ImprecisionModel::new(
            ImprecisionParams::perfect(),
            &map,
            (0x40_0000, 0x50_0000),
            1,
        );
        for _ in 0..100 {
            let r = m.distort(&event(MemAccessKind::Load));
            assert_eq!(r.pc, 0x40_0100);
            assert_eq!(r.data_addr, 0x1000_0040);
            let r = m.distort(&event(MemAccessKind::Store));
            assert_eq!(r.pc, 0x40_0100);
            assert_eq!(r.data_addr, 0x1000_0040);
        }
    }

    #[test]
    fn load_records_match_paper_accuracy_averages() {
        let map = test_map();
        let mut m = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            2,
        );
        let n = 20_000;
        let mut addr_ok = 0;
        let mut pc_exact = 0;
        let mut pc_adjacent = 0;
        for _ in 0..n {
            let r = m.distort(&event(MemAccessKind::Load));
            if r.data_addr == 0x1000_0040 {
                addr_ok += 1;
            }
            if r.pc == 0x40_0100 {
                pc_exact += 1;
            }
            if (r.pc as i64 - 0x40_0100i64).unsigned_abs() <= 4 {
                pc_adjacent += 1;
            }
        }
        let addr_frac = addr_ok as f64 / n as f64;
        let pc_exact_frac = pc_exact as f64 / n as f64;
        let pc_adj_frac = pc_adjacent as f64 / n as f64;
        assert!((addr_frac - 0.75).abs() < 0.03, "addr accuracy {addr_frac}");
        assert!(
            (pc_exact_frac - 0.40).abs() < 0.03,
            "pc exact {pc_exact_frac}"
        );
        assert!(
            (pc_adj_frac - 0.70).abs() < 0.03,
            "pc adjacent {pc_adj_frac}"
        );
    }

    #[test]
    fn store_records_are_much_less_accurate_than_loads() {
        let map = test_map();
        let mut m = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            3,
        );
        let n = 10_000;
        let mut load_addr_ok = 0;
        let mut store_addr_ok = 0;
        for _ in 0..n {
            if m.distort(&event(MemAccessKind::Load)).data_addr == 0x1000_0040 {
                load_addr_ok += 1;
            }
            if m.distort(&event(MemAccessKind::Store)).data_addr == 0x1000_0040 {
                store_addr_ok += 1;
            }
        }
        assert!(load_addr_ok > store_addr_ok * 4);
    }

    #[test]
    fn wrong_addresses_are_mostly_unmapped() {
        let map = test_map();
        let mut m = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            4,
        );
        let mut wrong = 0;
        let mut unmapped = 0;
        for _ in 0..20_000 {
            let r = m.distort(&event(MemAccessKind::Store));
            if r.data_addr != 0x1000_0040 {
                wrong += 1;
                if !map.is_mapped(r.data_addr) {
                    unmapped += 1;
                }
            }
        }
        assert!(wrong > 0);
        let frac = unmapped as f64 / wrong as f64;
        assert!(
            frac > 0.90,
            "unmapped fraction of wrong addresses was {frac}"
        );
    }

    #[test]
    fn wrong_pcs_stay_inside_the_binary() {
        let map = test_map();
        let mut m = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            5,
        );
        let mut wrong = 0;
        let mut in_binary = 0;
        for _ in 0..20_000 {
            let r = m.distort(&event(MemAccessKind::Store));
            if (r.pc as i64 - 0x40_0100i64).unsigned_abs() > 4 {
                wrong += 1;
                if r.pc >= 0x40_0000 && r.pc < 0x50_0000 {
                    in_binary += 1;
                }
            }
        }
        assert!(wrong > 0);
        assert!(in_binary as f64 / wrong as f64 > 0.95);
    }

    /// Every PC wrong and every wrong PC drawn inside the binary, so each
    /// record goes through `random_in_binary_pc`.
    fn always_wrong_pc() -> ImprecisionParams {
        ImprecisionParams {
            store_pc_exact: 0.0,
            store_pc_adjacent: 0.0,
            wrong_pc_in_binary: 1.0,
            ..ImprecisionParams::perfect()
        }
    }

    #[test]
    fn a_one_instruction_binary_yields_wrong_pcs_outside_it() {
        // The event's PC is the binary's only instruction: no other PC in
        // the binary exists, and drawing for one used to loop forever.
        let map = test_map();
        let pc = event(MemAccessKind::Store).pc;
        let mut m = ImprecisionModel::new(always_wrong_pc(), &map, (pc, pc + 4), 8);
        for _ in 0..1_000 {
            let r = m.distort(&event(MemAccessKind::Store));
            assert!(!map.is_mapped(r.pc), "wrong PC {:#x} is mapped", r.pc);
        }
        // Any other event's PC is wrong as the one instruction.
        let mut m = ImprecisionModel::new(always_wrong_pc(), &map, (pc + 4, pc + 8), 8);
        for _ in 0..100 {
            assert_eq!(m.distort(&event(MemAccessKind::Store)).pc, pc + 4);
        }
    }

    #[test]
    fn a_binary_narrower_than_one_instruction_does_not_panic() {
        // `gen_range(0..0)` used to panic: "cannot sample empty range".
        let map = test_map();
        let pc = event(MemAccessKind::Store).pc;
        for code_range in [(pc, pc + 2), (pc, pc), (pc + 8, pc)] {
            let mut m = ImprecisionModel::new(always_wrong_pc(), &map, code_range, 9);
            for _ in 0..100 {
                let r = m.distort(&event(MemAccessKind::Store));
                assert!(!map.is_mapped(r.pc), "wrong PC {:#x} is mapped", r.pc);
            }
        }
    }

    #[test]
    fn a_two_instruction_binary_still_draws_the_other_instruction() {
        let map = test_map();
        let pc = event(MemAccessKind::Store).pc;
        let mut m = ImprecisionModel::new(always_wrong_pc(), &map, (pc, pc + 8), 10);
        for _ in 0..100 {
            assert_eq!(m.distort(&event(MemAccessKind::Store)).pc, pc + 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let map = test_map();
        let mut a = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            42,
        );
        let mut b = ImprecisionModel::new(
            ImprecisionParams::default(),
            &map,
            (0x40_0000, 0x50_0000),
            42,
        );
        for _ in 0..100 {
            assert_eq!(
                a.distort(&event(MemAccessKind::Load)),
                b.distort(&event(MemAccessKind::Load))
            );
        }
    }
}
