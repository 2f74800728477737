//! Isolated loops: one public library function at a time, fed inputs
//! recorded from a layered replay (or a seeded stream where the function has
//! no recorded input), results through `std::hint::black_box`. They price a
//! layer's unit of work in nanoseconds, which the spans of a traced pass
//! cannot do for calls that take tens of nanoseconds.

use std::hint::black_box;
use std::time::Instant;

use laser_core::{ContentionKind, Detector, LaserOutcome, PipelineConfig, RepairPlan};
use laser_isa::DecodedProgram;
use laser_machine::{CoherenceDirectory, Machine, MachineConfig, WorkloadImage};
use laser_pebs::channel::{self, OverflowPolicy};
use laser_pebs::{ImprecisionModel, Pmu, PmuConfig};

use crate::session::{Cell, Prepared, Recording};
use crate::stats::median;

/// SplitMix64: the benchmark's own seeded stream generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// `CoherenceDirectory::access` in nanoseconds per access, on two seeded
/// streams: `(private, pingpong)`. Private: four cores, each touching only
/// its own 512 lines (every access an L1 hit after the first touch).
/// Ping-pong: two cores writing the same few lines in turn (every access a
/// HITM).
pub fn coherence_access_ns(seed: u64) -> (f64, f64) {
    const ACCESSES: usize = 1_000_000;
    let mut rng = SplitMix(seed);
    let private: Vec<(usize, u64, bool)> = (0..ACCESSES)
        .map(|_| {
            let r = rng.next();
            let core = (r & 3) as usize;
            let line = (r >> 2) % 512;
            ((core), (core as u64 * 512 + line) * 64, r & (1 << 20) != 0)
        })
        .collect();
    let pingpong: Vec<(usize, u64, bool)> = (0..ACCESSES)
        .map(|i| (i & 1, (rng.next() % 4) * 64, true))
        .collect();
    let time = |stream: &[(usize, u64, bool)]| {
        let mut dir = CoherenceDirectory::new(4);
        let start = Instant::now();
        for &(core, line, write) in stream {
            black_box(dir.access(core, line, write));
        }
        ns_since(start) / stream.len() as f64
    };
    (time(&private), time(&pingpong))
}

/// `laser_pebs::channel::bounded(2, Backpressure)` in nanoseconds:
/// `(round trip between two threads, send + recv on one thread)`.
pub fn channel_ns() -> (f64, f64) {
    const ROUND_TRIPS: u64 = 20_000;
    const SAME_THREAD: u64 = 500_000;
    let (ping_tx, ping_rx) = channel::bounded::<u64>(2, OverflowPolicy::Backpressure);
    let (pong_tx, pong_rx) = channel::bounded::<u64>(2, OverflowPolicy::Backpressure);
    let roundtrip = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(v) = ping_rx.recv() {
                pong_tx.send(v);
            }
        });
        let start = Instant::now();
        for i in 0..ROUND_TRIPS {
            ping_tx.send(i);
            black_box(pong_rx.recv());
        }
        let ns = ns_since(start) / ROUND_TRIPS as f64;
        drop(ping_tx);
        ns
    });
    let (tx, rx) = channel::bounded::<u64>(2, OverflowPolicy::Backpressure);
    let start = Instant::now();
    for i in 0..SAME_THREAD {
        tx.send(i);
        black_box(rx.recv());
    }
    (roundtrip, ns_since(start) / SAME_THREAD as f64)
}

fn imprecision_model(p: &Prepared, cell: &Cell) -> ImprecisionModel {
    let program = cell.image.program();
    ImprecisionModel::new(
        p.config.imprecision,
        cell.image.memory_map(),
        (program.base_pc(), program.end_pc()),
        p.config.seed,
    )
}

/// `Pmu::observe` in nanoseconds per recorded event (at the workload's sav).
pub fn pmu_observe_ns(p: &Prepared, cell: &Cell, rec: &Recording) -> f64 {
    if rec.n_events() == 0 {
        return 0.0;
    }
    let mut pmu = Pmu::new(
        PmuConfig {
            sav: p.config.sav,
            num_cores: p.machine.num_cores,
            ..Default::default()
        },
        imprecision_model(p, cell),
    );
    let mut ns = 0.0;
    for batch in &rec.events {
        let start = Instant::now();
        black_box(pmu.observe(batch));
        ns += ns_since(start);
        black_box(pmu.drain_ready());
    }
    ns / rec.n_events() as f64
}

/// `ImprecisionModel::distort` in nanoseconds per recorded event.
pub fn distort_ns(p: &Prepared, cell: &Cell, rec: &Recording) -> f64 {
    if rec.n_events() == 0 {
        return 0.0;
    }
    let mut model = imprecision_model(p, cell);
    let start = Instant::now();
    for event in rec.events.iter().flatten() {
        black_box(model.distort(event));
    }
    ns_since(start) / rec.n_events() as f64
}

/// `Detector::absorb` in microseconds: eight detectors fed a line-hash split
/// of the recorded records, folded into one. Median of five folds.
pub fn absorb_us(p: &Prepared, cell: &Cell, rec: &Recording) -> f64 {
    const SHARDS: usize = 8;
    if rec.n_records() == 0 {
        return 0.0;
    }
    let folds: Vec<f64> = (0..5)
        .map(|_| {
            let mut shards: Vec<Detector> = (0..SHARDS)
                .map(|_| Detector::new(&p.config, cell.image.program(), cell.image.memory_map()))
                .collect();
            for batch in &rec.records {
                let mut parts = vec![Vec::new(); SHARDS];
                for r in batch {
                    let hash = (r.data_addr >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                    parts[hash as usize % SHARDS].push(*r);
                }
                for (shard, part) in shards.iter_mut().zip(&parts) {
                    shard.process(part);
                }
            }
            let start = Instant::now();
            let mut merged = shards.remove(0);
            for shard in shards {
                merged.absorb(shard);
            }
            let us = ns_since(start) / 1e3;
            black_box(merged.records_received());
            us
        })
        .collect();
    median(&folds)
}

/// `DecodedProgram::decode` in nanoseconds per instruction over `images`.
pub fn decode_ns_per_inst(images: &[&WorkloadImage]) -> f64 {
    const REPEATS: usize = 200;
    let insts: usize = images.iter().map(|i| i.program().num_insts()).sum();
    let start = Instant::now();
    for _ in 0..REPEATS {
        for image in images {
            black_box(DecodedProgram::decode(black_box(image.program())));
        }
    }
    ns_since(start) / (REPEATS * insts) as f64
}

/// `Machine::new` in microseconds per image.
pub fn machine_new_us(config: &MachineConfig, images: &[&WorkloadImage]) -> f64 {
    const REPEATS: usize = 5;
    let start = Instant::now();
    for _ in 0..REPEATS {
        for image in images {
            black_box(Machine::new(config.clone(), image));
        }
    }
    ns_since(start) / 1e3 / (REPEATS * images.len()) as f64
}

/// `RepairPlan::analyze` in microseconds per call, on the PCs of the lines
/// each cell's report classified as false sharing.
pub fn plan_analyze_us(p: &Prepared, outcomes: &[&LaserOutcome]) -> f64 {
    const REPEATS: usize = 20;
    let (mut calls, mut ns) = (0, 0.0);
    for (cell, outcome) in p.cells.iter().zip(outcomes) {
        let pcs: Vec<_> = outcome
            .report
            .lines
            .iter()
            .filter(|l| l.kind == ContentionKind::FalseSharing)
            .flat_map(|l| l.pcs.iter().copied())
            .collect();
        if pcs.is_empty() {
            continue;
        }
        let start = Instant::now();
        for _ in 0..REPEATS {
            black_box(RepairPlan::analyze(
                cell.image.program(),
                black_box(&pcs),
                p.config.min_stores_per_flush,
                p.config.max_plan_blocks,
            ));
        }
        ns += ns_since(start);
        calls += REPEATS;
    }
    if calls == 0 {
        0.0
    } else {
        ns / 1e3 / calls as f64
    }
}

/// `SessionBuilder::build` of an inline session in microseconds per image:
/// the base `core.pipeline.spawn_us` subtracts from the pipelined build.
pub fn inline_build_us(p: &Prepared) -> f64 {
    let start = Instant::now();
    for cell in &p.cells {
        black_box(p.builder(PipelineConfig::default()).build(&cell.image));
    }
    ns_since(start) / 1e3 / p.cells.len() as f64
}
