//! The differential oracle for the detector's record path: a [`Detector`]
//! and the [`Reference`] below — the detector as it stood before the record
//! path was rebuilt around a run merge, a PC-indexed table and interned
//! lines — are fed the same record batches in lock-step and must agree on
//! everything observable after **every** batch.
//!
//! Every test here has `detect::` in its path, so
//! `cargo test --release -p laser-core detect::` runs the suite at its full
//! case count; a debug build keeps a reduced count.

use std::collections::BTreeMap;

use laser_isa::inst::{Operand, Reg};
use laser_isa::ProgramBuilder;
use laser_machine::memmap::{PcClass, Region};
use laser_machine::{line_of, CoreId, Machine, MachineConfig, RunStatus, TopologySpec};
use laser_pebs::{Driver, ImprecisionModel, ImprecisionParams, Pmu, PmuConfig};

use super::super::linemodel::tests::bitmap_by_bytes;
use super::super::*;

/// Generated cases per seed family.
const GENERATED_CASES: u64 = if cfg!(debug_assertions) { 150 } else { 3_000 };

/// Steps after which a real stream stops: the registry programs run millions
/// of steps, which a debug-built machine cannot follow in test time.
const REAL_STREAM_STEPS: u64 = if cfg!(debug_assertions) {
    150_000
} else {
    3_000_000
};

/// The seeded generator of this crate's differential tests.
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------------------
// The reference detector
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct RefLineAgg {
    loc: SourceLoc,
    known: bool,
    records: u64,
    true_sharing: u64,
    false_sharing: u64,
    pcs: Vec<Pc>,
}

/// The straightforward detector: copy the batch and stable-sort it by
/// `cycle`, ask the memory map about every PC and data address, count per PC
/// in an ordered map, look the access up in the load/store sets, and build
/// the footprint bitmap byte by byte.
struct Reference {
    map: MemoryMap,
    memsets: MemAccessSets,
    source_of: BTreeMap<Pc, SourceLoc>,
    per_pc: BTreeMap<Pc, PcCounters>,
    /// Cache line → bitmap of its previous access.
    model: BTreeMap<Addr, u64>,
    total_records: u64,
    dropped_non_code: u64,
    dropped_stack: u64,
}

impl Reference {
    fn new(program: &Program, map: &MemoryMap) -> Self {
        let mut source_of = BTreeMap::new();
        for (pc, _) in program.iter_pcs() {
            if let Some(loc) = program.source_of(pc) {
                source_of.insert(pc, loc.clone());
            }
        }
        Reference {
            map: map.clone(),
            memsets: MemAccessSets::analyze(program),
            source_of,
            per_pc: BTreeMap::new(),
            model: BTreeMap::new(),
            total_records: 0,
            dropped_non_code: 0,
            dropped_stack: 0,
        }
    }

    fn access(&self, pc: Pc) -> Option<(u8, bool)> {
        if let Some(size) = self.memsets.store_size(pc) {
            Some((size, true))
        } else {
            self.memsets.load_size(pc).map(|size| (size, false))
        }
    }

    fn process(&mut self, records: &[HitmRecord]) -> usize {
        let mut records: Vec<HitmRecord> = records.to_vec();
        records.sort_by_key(|r| r.cycle);
        let mut kept = 0;
        for r in &records {
            self.total_records += 1;
            match self.map.classify_pc(r.pc) {
                PcClass::Application | PcClass::Library => {}
                PcClass::Other => {
                    self.dropped_non_code += 1;
                    continue;
                }
            }
            if self.map.is_stack(r.data_addr) {
                self.dropped_stack += 1;
                continue;
            }
            kept += 1;
            self.per_pc.entry(r.pc).or_default().records += 1;
            if let Some((size, _)) = self.access(r.pc) {
                let bitmap = bitmap_by_bytes(r.data_addr, size);
                if let Some(prev) = self.model.insert(line_of(r.data_addr), bitmap) {
                    let counters = self.per_pc.entry(r.pc).or_default();
                    if prev & bitmap != 0 {
                        counters.true_sharing += 1;
                    } else {
                        counters.false_sharing += 1;
                    }
                }
            }
        }
        kept
    }

    fn line_aggregates(&self) -> Vec<RefLineAgg> {
        let mut per_line: BTreeMap<SourceLoc, RefLineAgg> = BTreeMap::new();
        for (&pc, c) in &self.per_pc {
            let (loc, known) = match self.source_of.get(&pc) {
                Some(loc) => (loc.clone(), true),
                None => (SourceLoc::new("<unknown>", 0), false),
            };
            let agg = per_line.entry(loc.clone()).or_insert_with(|| RefLineAgg {
                loc,
                known,
                records: 0,
                true_sharing: 0,
                false_sharing: 0,
                pcs: Vec::new(),
            });
            agg.records += c.records;
            agg.true_sharing += c.true_sharing;
            agg.false_sharing += c.false_sharing;
            agg.pcs.push(pc);
        }
        per_line.into_values().collect()
    }

    fn repair_trigger_pcs(&self, elapsed_seconds: f64, min_line_rate: f64) -> Vec<Pc> {
        let elapsed = elapsed_seconds.max(1e-9);
        let mut pcs = Vec::new();
        for agg in self.line_aggregates() {
            if !agg.known {
                continue;
            }
            let rate = agg.records as f64 / elapsed;
            if rate >= min_line_rate
                && agg.false_sharing > agg.true_sharing
                && agg.false_sharing >= 2
            {
                pcs.extend(agg.pcs.iter().copied());
            }
        }
        pcs.sort_unstable();
        pcs.dedup();
        pcs
    }

    fn report(
        &self,
        workload: &str,
        elapsed_seconds: f64,
        rate_threshold: f64,
        repair_invoked: bool,
    ) -> ContentionReport {
        let elapsed = elapsed_seconds.max(1e-9);
        let mut lines: Vec<LineReport> = self
            .line_aggregates()
            .iter()
            .map(|agg| LineReport {
                location: agg.loc.clone(),
                hitm_records: agg.records,
                rate_per_sec: agg.records as f64 / elapsed,
                true_sharing_events: agg.true_sharing,
                false_sharing_events: agg.false_sharing,
                kind: Detector::classify(agg.records, agg.true_sharing, agg.false_sharing),
                pcs: agg.pcs.clone(),
            })
            .filter(|l| l.rate_per_sec >= rate_threshold)
            .collect();
        lines.sort_by(|a, b| {
            b.hitm_records
                .cmp(&a.hitm_records)
                .then(a.location.cmp(&b.location))
        });
        ContentionReport {
            workload: workload.to_string(),
            lines,
            total_records: self.total_records,
            dropped_non_code: self.dropped_non_code,
            dropped_stack: self.dropped_stack,
            elapsed_seconds,
            repair_invoked,
            remote_hitm_share: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-step comparison
// ---------------------------------------------------------------------------

/// A detector and its reference, fed the same batches.
struct Lockstep {
    detector: Detector,
    reference: Reference,
    batches: usize,
    what: String,
}

impl Lockstep {
    fn new(program: &Program, map: &MemoryMap, what: String) -> Self {
        let detector = Detector::new(&LaserConfig::default(), program, map);
        let reference = Reference::new(program, map);
        // The table holds, per instruction, what the reference looks up per
        // record. `is_write` never reaches an output (the model classifies
        // by footprint), so only this check sees which set wins for an RMW.
        for (slot, (pc, _)) in program.iter_pcs().enumerate() {
            let entry = &detector.table[slot];
            assert_eq!(
                entry.access,
                reference.access(pc),
                "{what}: access of {pc:#x}"
            );
            assert_eq!(
                entry.keep,
                map.classify_pc(pc) != PcClass::Other,
                "{what}: PC filter on {pc:#x}"
            );
        }
        Lockstep {
            detector,
            reference,
            batches: 0,
            what,
        }
    }

    /// Feed `records` to both and compare every observable: the aggregates,
    /// and the repair trigger and report lines a session derives
    /// from them. `elapsed` is the benchmark time the rate-dependent views
    /// are evaluated at.
    fn feed(&mut self, records: &[HitmRecord], elapsed: f64) {
        self.batches += 1;
        let what = format!("{} batch {}", self.what, self.batches);
        let (d, r) = (&mut self.detector, &mut self.reference);
        assert_eq!(d.process(records), r.process(records), "{what}: kept");
        assert_eq!(d.records_received(), r.total_records, "{what}: received");

        let aggs = d.line_aggregates();
        let materialised: Vec<RefLineAgg> = aggs
            .aggs
            .iter()
            .map(|agg| RefLineAgg {
                loc: aggs.lines[agg.line as usize].clone(),
                known: agg.known,
                records: agg.records,
                true_sharing: agg.true_sharing,
                false_sharing: agg.false_sharing,
                pcs: agg.pcs.clone(),
            })
            .collect();
        assert_eq!(materialised, r.line_aggregates(), "{what}: aggregates");
        assert_eq!(
            d.model.tracked_lines(),
            r.model.len(),
            "{what}: tracked lines"
        );
        // Thresholds in records per second: everything, a rate a few lines
        // reach, and one nothing does.
        let mean_rate = r.total_records as f64 / elapsed.max(1e-9) / 8.0;
        for threshold in [0.0, mean_rate, f64::MAX] {
            let reference = r.report("oracle", elapsed, threshold, false);
            assert_eq!(
                trigger_pcs_from(&aggs, elapsed, threshold),
                r.repair_trigger_pcs(elapsed, threshold),
                "{what}: trigger PCs at {threshold}"
            );
            assert_eq!(
                report_lines_from(&aggs, elapsed, threshold),
                reference.lines,
                "{what}: report lines at {threshold}"
            );
            assert_eq!(
                d.report("oracle", elapsed, threshold, false),
                reference,
                "{what}: report at {threshold}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (a) Real streams: registry workloads through machine + driver
// ---------------------------------------------------------------------------

/// The benchmark's `contended_*` programs: 51–275 HITM per thousand steps.
const CONTENDED: &[&str] = &[
    "dedup",
    "volrend",
    "linear_regression",
    "kmeans",
    "bodytrack",
    "histogram'",
];

fn real_stream(name: &str, topology: TopologySpec, sav: u32, imprecision: ImprecisionParams) {
    let spec = laser_workloads::find(name).expect("registry workload");
    let options = laser_workloads::BuildOptions::scaled(0.5).for_topology(topology);
    let image = spec.build(&options);
    let program = image.program();
    let mut machine = Machine::new(MachineConfig::for_topology(topology), &image);
    let model = ImprecisionModel::new(
        imprecision,
        image.memory_map(),
        (program.base_pc(), program.end_pc()),
        0xA5E12 ^ u64::from(sav),
    );
    let pmu = Pmu::new(
        PmuConfig {
            sav,
            num_cores: machine.num_cores(),
            ..Default::default()
        },
        model,
    );
    let mut driver = Driver::new(pmu, Default::default());
    let perfect = imprecision == ImprecisionParams::perfect();
    let what = format!("{name} {} sav {sav} perfect {perfect}", topology.key());
    let mut lockstep = Lockstep::new(program, image.memory_map(), what);
    loop {
        let quantum = machine.run_quantum(10_000);
        driver.ingest(quantum.events, &mut machine);
        let records = driver.read_records();
        if !records.is_empty() {
            lockstep.feed(&records, machine.elapsed_benchmark_seconds());
        }
        if quantum.status == RunStatus::Done || machine.steps() >= REAL_STREAM_STEPS {
            break;
        }
    }
    driver.flush();
    lockstep.feed(&driver.read_records(), machine.elapsed_benchmark_seconds());
    assert!(
        lockstep.reference.total_records > 0,
        "{}: a contended program yields records",
        lockstep.what
    );
}

fn real_streams(topology: TopologySpec) {
    for name in CONTENDED {
        for sav in [1, 19] {
            for imprecision in [ImprecisionParams::default(), ImprecisionParams::perfect()] {
                real_stream(name, topology, sav, imprecision);
            }
        }
    }
}

#[test]
fn real_streams_on_flat_agree_with_the_reference_after_every_batch() {
    real_streams(TopologySpec::Flat);
}

#[test]
fn real_streams_on_8s_agree_with_the_reference_after_every_batch() {
    real_streams(TopologySpec::OctoSocket);
}

// ---------------------------------------------------------------------------
// (b) Generated streams that aim at the seams
// ---------------------------------------------------------------------------

const HEAP: (Addr, Addr) = (0x1000_0000, 0x1100_0000);

/// A seeded program and address space, with the PCs and data addresses that
/// sit on the seams of the detector's tables.
struct World {
    program: Program,
    map: MemoryMap,
    /// PCs worth drawing: instructions, and the edges around them.
    pcs: Vec<Pc>,
    /// Data addresses worth drawing: region edges, straddles, hot lines.
    addrs: Vec<Addr>,
}

fn world(rng: &mut XorShift) -> World {
    let base_pc = rng.pick(&[0x40_0000, 0x1000, 0x7000_0000]);
    let mut b = ProgramBuilder::new("oracle").with_base_pc(base_pc);
    let blk = b.block("main");
    b.switch_to(blk);
    // Leading instructions (usually) carry no debug info; later ones draw
    // from a few lines of two files and, sometimes, a line that *is* the
    // sentinel.
    let files = ["b.c", "a.c", "<unknown>"];
    let n = 4 + rng.below(60);
    let undocumented = rng.pick(&[0, 3, 3]);
    for i in 0..n {
        if i >= undocumented && rng.below(3) == 0 {
            let file = rng.pick(&files);
            let line = if file == "<unknown>" {
                0
            } else {
                rng.below(6) as u32
            };
            b.source(file, line);
        }
        let size = rng.pick(&[1, 2, 4, 8]);
        match rng.below(5) {
            0 => b.load(Reg(1), Reg(0), 0, size),
            1 => b.store(Operand::Imm(1), Reg(0), 0, size),
            2 => b.mem_add(Reg(0), 0, Operand::Imm(1), size),
            3 => b.atomic_fetch_add(Reg(1), Reg(0), 0, Operand::Imm(1), size),
            _ => b.nop(),
        };
    }
    b.halt();
    let program = b.finish();
    let (base, end) = (program.base_pc(), program.end_pc());

    let mut map = MemoryMap::new();
    // The code mapping: flush with the program, wider than it, covering only
    // its first half, or split into an application and a library half.
    let mid = base + (end - base) / 2 / INST_BYTES * INST_BYTES;
    match rng.below(4) {
        0 => map.add(Region::new(base, end, RegionKind::AppCode, "app")),
        1 => map.add(Region::new(
            base - 0x40,
            end + 0x40,
            RegionKind::AppCode,
            "app",
        )),
        2 => map.add(Region::new(base, mid, RegionKind::AppCode, "app")),
        _ => {
            map.add(Region::new(base, mid, RegionKind::AppCode, "app"));
            map.add(Region::new(mid, end + 2, RegionKind::LibCode, "lib"));
        }
    }
    // A library below or above the program: its PCs are off the table on
    // either side of it.
    let lib = rng.pick(&[(0x100, 0x800), (0x9000_0000, 0x9000_4000)]);
    map.add(Region::new(lib.0, lib.1, RegionKind::LibCode, "libc"));
    map.add(Region::new(HEAP.0, HEAP.1, RegionKind::Heap, "[heap]"));
    map.add(Region::new(
        0x2000_0000,
        0x2000_1000,
        RegionKind::Globals,
        ".data",
    ));
    // Stacks: adjacent ones, one apart, and a non-stack mapping between.
    let mut stacks = Vec::new();
    let mut at = 0x7f00_0000;
    for thread in 0..1 + rng.below(5) {
        if rng.below(3) == 0 {
            map.add(Region::new(at, at + 0x100, RegionKind::Other, "[guard]"));
            at += 0x100 + rng.below(2) * 0x1000;
        }
        let len = 0x40 * (1 + rng.below(64));
        map.add(Region::new(
            at,
            at + len,
            RegionKind::Stack(thread as u32),
            "[stack]",
        ));
        stacks.push((at, at + len));
        at += len;
    }

    let mut pcs = vec![
        base - 4,
        base,
        base + 1,
        base + 2,
        base + 6,
        mid - 4,
        mid,
        mid + 3,
        end - 4,
        end - 1,
        end,
        end + 1,
        end + 4,
        end + 0x3c,
        end + 0x40,
        lib.0,
        lib.0 + 0x104,
        lib.1 - 1,
        lib.1,
        HEAP.0 + 0x10,
        stacks[0].0 + 8,
        0xdead_0000_0000,
    ];
    for _ in 0..12 {
        pcs.push(base + rng.below(n + 1) * INST_BYTES);
    }

    let mut addrs = vec![HEAP.0, HEAP.1 - 1, HEAP.1, 0x2000_0000, 0x7eff_ffff];
    for &(lo, hi) in &stacks {
        addrs.extend([lo - 1, lo, lo + 1, hi - 1, hi]);
    }
    // A few hot lines, with every offset that straddles the line end, and a
    // few garbage lines that repeat.
    for line in 0..3 {
        let hot = HEAP.0 + 0x1000 + line * 64;
        addrs.extend((0..8).map(|i| hot + i * 8));
        addrs.extend((56..64).map(|offset| hot + offset));
    }
    for _ in 0..4 {
        let garbage = rng.next() & ((1 << 47) - 1);
        addrs.extend([garbage, garbage ^ 8, garbage ^ 0x38]);
    }
    World {
        program,
        map,
        pcs,
        addrs,
    }
}

/// One batch over `world`: per-core bursts like the driver's, or one of the
/// shapes only a direct caller of `process` can produce.
fn batch(rng: &mut XorShift, world: &World, clock: &mut [u64], len: usize) -> Vec<HitmRecord> {
    let cores = clock.len();
    // 0: well-formed bursts. 1: a core's clock jumps backwards mid-batch
    // (the fallback). 2: core ids far above any machine's.
    let shape = rng.below(8);
    let burst = 1 + rng.below(40) as usize;
    let mut records = Vec::with_capacity(len);
    let mut core = 0;
    while records.len() < len {
        if records.len() % burst == 0 {
            core = rng.below(cores as u64) as usize;
        }
        // Small steps, often zero: equal timestamps within a core and, the
        // clocks starting together, across cores.
        clock[core] += rng.pick(&[0, 0, 1, 1, 2, 7]);
        if shape == 1 && rng.below(50) == 0 {
            clock[core] = clock[core].saturating_sub(rng.below(20));
        }
        let id = if shape == 2 && rng.below(4) == 0 {
            core + rng.pick(&[124, 128, 1 << 20, usize::MAX - 128])
        } else {
            core
        };
        records.push(HitmRecord {
            pc: if rng.below(40) == 0 {
                rng.next()
            } else {
                rng.pick(&world.pcs)
            },
            data_addr: if rng.below(40) == 0 {
                rng.next()
            } else {
                rng.pick(&world.addrs)
            },
            core: CoreId(id),
            cycle: clock[core],
        });
    }
    records
}

fn generated_case(seed: u64) {
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let world = world(&mut rng);
    let cores = rng.pick(&[1, 2, 4, 7, 32, 128]);
    let mut clock = vec![rng.below(1000); cores];
    let mut lockstep = Lockstep::new(&world.program, &world.map, format!("seed {seed}"));
    for i in 0..2 + rng.below(6) {
        let len = match rng.below(10) {
            0 => 0,
            1 => 1,
            // One 100 k-record batch per twenty cases.
            2 if i == 0 && seed.is_multiple_of(20) => 100_000,
            _ => 1 + rng.below(700) as usize,
        };
        let records = batch(&mut rng, &world, &mut clock, len);
        lockstep.feed(&records, (i + 1) as f64 * 1e-4);
    }
}

#[test]
fn generated_streams_agree_with_the_reference_after_every_batch() {
    for seed in 0..GENERATED_CASES {
        generated_case(seed);
    }
}

// ---------------------------------------------------------------------------
// `absorb` on the table layout
// ---------------------------------------------------------------------------

#[test]
fn absorbing_a_line_hash_split_reconstructs_the_single_detector() {
    const SHARDS: usize = 8;
    for seed in 0..20 {
        let mut rng = XorShift(0xab50_4b00 + seed);
        let world = world(&mut rng);
        let mut clock = vec![0; 4];
        let config = LaserConfig::default();
        let new = || Detector::new(&config, &world.program, &world.map);
        let mut whole = new();
        let mut shards: Vec<Detector> = (0..SHARDS).map(|_| new()).collect();
        for _ in 0..6 {
            let records = batch(&mut rng, &world, &mut clock, 500);
            whole.process(&records);
            let mut parts = vec![Vec::new(); SHARDS];
            for r in &records {
                let hash = line_of(r.data_addr).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                parts[hash as usize % SHARDS].push(*r);
            }
            for (shard, part) in shards.iter_mut().zip(&parts) {
                shard.process(part);
            }
        }
        assert!(
            !whole.spill.is_empty(),
            "seed {seed}: the stream reaches a PC off the table"
        );
        let mut merged = shards.remove(0);
        for shard in shards {
            merged.absorb(shard);
        }
        assert_eq!(merged.line_aggregates(), whole.line_aggregates());
        assert_eq!(merged.records_received(), whole.records_received());
        assert_eq!(
            merged.report("absorb", 1.0, 0.0, false),
            whole.report("absorb", 1.0, 0.0, false)
        );
        assert_eq!(merged.model.tracked_lines(), whole.model.tracked_lines());
    }
}
