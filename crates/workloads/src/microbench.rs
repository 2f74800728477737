//! The Section 3.1 characterization test cases.
//!
//! The paper characterizes Haswell's HITM records with "over 160 test cases
//! coded in assembly. These test cases each involve two threads engaged in
//! true or false sharing, with either write-read/read-write or write-write
//! sharing. Each thread performs the same operation repeatedly in an infinite
//! loop, where the loop body varies across tests from a single memory
//! operation to hundreds of … instructions."
//!
//! [`characterization_cases`] generates the equivalent matrix of cases
//! (bounded loops so the simulation terminates); each case knows the ground
//! truth — the PCs and data addresses truly involved in contention — so the
//! Figure 3 experiment can score every HITM record it receives.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use laser_isa::inst::{Operand, Reg};
use laser_isa::program::Pc;
use laser_isa::ProgramBuilder;
use laser_machine::{Addr, ThreadSpec, WorkloadImage};

use crate::common::{close_loop, heap_alloc, open_loop, regs};
use crate::spec::{Build, SheriffCompat, Suite, WorkloadSpec};

/// True sharing (same bytes) or false sharing (distinct bytes, same line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// Both threads touch the same 8 bytes.
    TrueSharing,
    /// The threads touch different 8-byte slots of one cache line.
    FalseSharing,
}

/// Which threads write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// One thread writes, the other only reads (the paper's RW tests).
    ReadWrite,
    /// Both threads write (the WW tests).
    WriteWrite,
}

/// One characterization test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharacterizationCase {
    /// Case index (0..160).
    pub id: usize,
    /// Sharing pattern.
    pub pattern: SharingPattern,
    /// Write mode.
    pub mode: WriteMode,
    /// Number of filler instructions in each loop body.
    pub filler_ops: usize,
    /// Loop iterations per thread.
    pub iters: u64,
}

/// A built test case: the image plus the ground truth needed to score records.
#[derive(Debug, Clone)]
pub struct BuiltCase {
    /// The two-thread workload image.
    pub image: WorkloadImage,
    /// PCs of the instructions genuinely involved in the contention.
    pub contended_pcs: Vec<Pc>,
    /// Data addresses genuinely involved in the contention.
    pub contended_addrs: Vec<Addr>,
}

impl CharacterizationCase {
    /// The category label used in Figure 3 ("TSRW", "FSRW", "TSWW", "FSWW").
    pub fn label(&self) -> &'static str {
        match (self.pattern, self.mode) {
            (SharingPattern::TrueSharing, WriteMode::ReadWrite) => "TSRW",
            (SharingPattern::FalseSharing, WriteMode::ReadWrite) => "FSRW",
            (SharingPattern::TrueSharing, WriteMode::WriteWrite) => "TSWW",
            (SharingPattern::FalseSharing, WriteMode::WriteWrite) => "FSWW",
        }
    }

    /// The case as a workload a campaign plans like any other, named
    /// `chara_{id}` after its image. [`registry`](crate::registry) does not
    /// list it, and its image ignores the build options.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: case_name(self.id),
            suite: Suite::Characterization,
            known_bugs: Vec::new(),
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: Build::Case(*self),
        }
    }

    /// Build the two-thread workload for this case, returning the image and
    /// the ground-truth PCs/addresses.
    pub fn build(&self) -> BuiltCase {
        let file = "characterization.S";
        let mut b = ProgramBuilder::new(format!("chara_{}", self.id));

        // Writer thread: stores to slot 0 of the shared line every iteration.
        b.source(file, 10);
        let writer_entry = b.block("writer");
        b.switch_to(writer_entry);
        let (w_body, w_exit) = open_loop(&mut b, "writer_loop");
        b.source(file, 12);
        b.store(Operand::Reg(regs::IV), regs::DATA, 0, 8);
        b.nops(self.filler_ops);
        // The writer's loop is cheaper than the peer's (its accesses rarely
        // pay the HITM transfer), so it runs more iterations to keep both
        // threads contending for the whole measurement window, as the paper's
        // infinite-loop test cases do.
        close_loop(&mut b, w_body, w_exit, self.iters * 3);
        b.halt();

        // Peer thread: reads or writes slot 0 (true sharing) or slot 1 (false
        // sharing).
        let peer_offset: i64 = match self.pattern {
            SharingPattern::TrueSharing => 0,
            SharingPattern::FalseSharing => 8,
        };
        b.source(file, 20);
        let peer_entry = b.block("peer");
        b.switch_to(peer_entry);
        let (p_body, p_exit) = open_loop(&mut b, "peer_loop");
        b.source(file, 22);
        match self.mode {
            WriteMode::ReadWrite => {
                b.load(Reg(9), regs::DATA, peer_offset, 8);
            }
            WriteMode::WriteWrite => {
                b.store(Operand::Reg(regs::IV), regs::DATA, peer_offset, 8);
            }
        }
        b.nops(self.filler_ops);
        close_loop(&mut b, p_body, p_exit, self.iters);
        b.halt();

        let program = b.finish();
        // The contended instructions are the first instruction of each loop
        // body (the store / the peer's memory op).
        let writer_mem_pc = program.pc_of(w_body, 0);
        let peer_mem_pc = program.pc_of(p_body, 0);

        let mut image = WorkloadImage::new(format!("chara_{}", self.id), program);
        let line = heap_alloc(&mut image, 64, 64, "shared line");
        image.push_thread(
            ThreadSpec::new("writer", "writer")
                .with_reg(regs::DATA, line)
                .with_reg(regs::TID, 0),
        );
        image.push_thread(
            ThreadSpec::new("peer", "peer")
                .with_reg(regs::DATA, line)
                .with_reg(regs::TID, 1),
        );

        let mut contended_addrs = vec![line];
        if peer_offset != 0 {
            contended_addrs.push(line + peer_offset as u64);
        }
        BuiltCase {
            image,
            contended_pcs: vec![writer_mem_pc, peer_mem_pc],
            contended_addrs,
        }
    }
}

/// `chara_{id}` as a workload name, which is `'static`: each distinct id is
/// rendered once per process and kept.
fn case_name(id: usize) -> &'static str {
    static NAMES: Mutex<BTreeMap<usize, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    names
        .entry(id)
        .or_insert_with(|| Box::leak(format!("chara_{id}").into_boxed_str()))
}

/// Generate the full matrix of 160 characterization cases: the four
/// sharing/write categories crossed with twenty loop-body sizes and two loop
/// lengths.
pub fn characterization_cases() -> Vec<CharacterizationCase> {
    let mut cases = Vec::new();
    let mut id = 0;
    for pattern in [SharingPattern::TrueSharing, SharingPattern::FalseSharing] {
        for mode in [WriteMode::ReadWrite, WriteMode::WriteWrite] {
            for filler in 0..20usize {
                for iters in [600u64, 1000u64] {
                    cases.push(CharacterizationCase {
                        id,
                        pattern,
                        mode,
                        filler_ops: filler * 5,
                        iters,
                    });
                    id += 1;
                }
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_machine::{Machine, MachineConfig};

    #[test]
    fn there_are_160_cases_across_four_categories() {
        let cases = characterization_cases();
        assert_eq!(cases.len(), 160);
        for label in ["TSRW", "FSRW", "TSWW", "FSWW"] {
            assert_eq!(cases.iter().filter(|c| c.label() == label).count(), 40);
        }
    }

    #[test]
    fn cases_generate_hitms_with_exact_ground_truth() {
        let case = CharacterizationCase {
            id: 0,
            pattern: SharingPattern::FalseSharing,
            mode: WriteMode::ReadWrite,
            filler_ops: 5,
            iters: 500,
        };
        let built = case.build();
        let mut m = Machine::new(MachineConfig::default(), &built.image);
        let r = m.run_to_completion().unwrap();
        assert!(
            r.stats.hitm_events > 100,
            "only {} HITMs",
            r.stats.hitm_events
        );
        // Every ground-truth HITM event points at one of the contended PCs and
        // one of the contended addresses.
        let events = m.take_hitm_events();
        for e in &events {
            assert!(
                built.contended_pcs.contains(&e.pc),
                "unexpected pc {:#x}",
                e.pc
            );
            assert!(
                built
                    .contended_addrs
                    .iter()
                    .any(|&a| e.addr >= a && e.addr < a + 8),
                "unexpected addr {:#x}",
                e.addr
            );
        }
    }

    #[test]
    fn true_sharing_write_write_also_contends() {
        let case = CharacterizationCase {
            id: 1,
            pattern: SharingPattern::TrueSharing,
            mode: WriteMode::WriteWrite,
            filler_ops: 0,
            iters: 400,
        };
        let built = case.build();
        let mut m = Machine::new(MachineConfig::default(), &built.image);
        let r = m.run_to_completion().unwrap();
        assert!(r.stats.hitm_events > 100);
        assert!(r.stats.hitm_stores > 0);
    }

    #[test]
    fn a_case_is_a_workload_the_registry_does_not_list() {
        let case = characterization_cases()[37];
        let spec = case.spec();
        assert_eq!(spec.name, "chara_37");
        assert!(std::ptr::eq(spec.name, case.spec().name), "named once");
        assert_eq!(spec.characterization(), Some(&case));
        assert!(crate::find(spec.name).is_none());
        assert_eq!(crate::find("histogram").unwrap().characterization(), None);
        // The spec builds the case's own image, whatever the options.
        let image = spec.build(&crate::BuildOptions::scaled(3.0).with_threads(8));
        assert_eq!(image.name(), spec.name);
        assert_eq!(format!("{image:?}"), format!("{:?}", case.build().image));
    }

    #[test]
    fn labels_cover_all_categories() {
        let c = |p, m| CharacterizationCase {
            id: 0,
            pattern: p,
            mode: m,
            filler_ops: 0,
            iters: 1,
        };
        assert_eq!(
            c(SharingPattern::TrueSharing, WriteMode::ReadWrite).label(),
            "TSRW"
        );
        assert_eq!(
            c(SharingPattern::FalseSharing, WriteMode::WriteWrite).label(),
            "FSWW"
        );
    }
}
