//! LASERDETECT: the HITM-record processing pipeline (paper Section 4,
//! Figure 4).
//!
//! Records flow through the stages in order:
//!
//! 1. **PC filter** — records whose PC does not belong to the application or
//!    one of its libraries are dropped as spurious.
//! 2. **Stack filter** — records whose data address falls in a thread stack
//!    are dropped (stacks are not shared).
//! 3. **Aggregation** — surviving records are counted per PC and per source
//!    line; lines below the HITM-rate threshold are filtered from the final
//!    report (the threshold can be re-applied offline without rerunning).
//! 4. **Classification** — the PC is looked up in the binary's load/store
//!    sets to recover the access kind and size, and the access is replayed
//!    against the [`linemodel::CacheLineModel`] to count true- and
//!    false-sharing events per line.
//!
//! # Hot path
//!
//! The detector is meant to be *light*: a record costs a few array reads and
//! one hash probe, and no ordered map is walked per record.
//!
//! - **Stages 1, 3 and 4 are one table lookup.** A program's instructions
//!   are laid out densely, so [`Detector::new`] builds one entry per
//!   instruction holding the PC filter's verdict, the load/store-set access,
//!   the interned source line and the PC's counters; a record's PC is
//!   subtracted, checked for alignment and bounds, and indexed. Kept PCs
//!   that are not instructions of the program — library code, an unaligned
//!   PC, an application-region PC past the program's end — are counted in a
//!   small ordered spill map, which real record streams almost never reach.
//! - **Stage 2 is two comparisons**: an address outside the hull of the
//!   stack mappings is not a stack address; only inside it are the stack
//!   ranges checked.
//! - **A batch is merged, not sorted.** The line model must consume records
//!   in timestamp order, ties in batch order — the permutation of a stable
//!   sort by `cycle`. A batch is a concatenation of per-core PEBS bursts and
//!   each core's records are already in order, so the detector buckets
//!   16-byte `(cycle, index)` keys by core and merges the per-core runs
//!   pairwise: `log2(cores)` passes over keys instead of a merge sort's
//!   `log2(n / burst)` passes over a copy of the 32-byte records.
//!   [`Detector::process`] is public and a caller may hand it anything, so a
//!   batch whose per-core runs are *not* ascending has its keys sorted
//!   instead — the same permutation by another route, a correctness path and
//!   not an option.
//! - **Garbage lines stay in the model.** An imprecise record's data address
//!   is a random unmapped address, and the model tracks its line like any
//!   other: the paper's filters drop bad PCs and stack addresses, not
//!   unmapped data addresses. With 10^5–10^6 random 41-bit line numbers per
//!   run a repeat is not negligible (birthday bound about 0.2 per million
//!   draws), and a repeat is a classified sharing event, so dropping such
//!   lines would change counts. The model therefore keeps every line
//!   exactly, and makes each one cheap instead: a ten-byte slot (line
//!   number and a packed 13-bit footprint) in its own open-addressing
//!   table, split into 64 segments that double one at a time, so growing
//!   the table never holds two copies of it.
//! - **Aggregates carry line ids, not strings.** Source locations are
//!   interned once, sorted, at [`Detector::new`]; per-line aggregation
//!   indexes by id and comes out in id order, which is source-location
//!   order. Strings are materialised only in what leaves the crate
//!   ([`LineReport`]).
//!
//! `tests/oracle.rs` keeps the straightforward implementation — copy, stable
//! sort, memory-map queries, ordered maps, a per-byte bitmap loop — as a
//! reference and differences this one against it after every batch.

pub mod linemodel;

use std::collections::BTreeMap;
use std::sync::Arc;

use laser_isa::program::{Pc, Program, SourceLoc, INST_BYTES};
use laser_isa::MemAccessSets;
use laser_machine::memmap::RegionKind;
use laser_machine::{Addr, MemoryMap};
use laser_pebs::HitmRecord;

use crate::config::LaserConfig;
use crate::report::{ContentionKind, ContentionReport, LineReport};
use linemodel::{CacheLineModel, SharingClass};

/// Cycles a detector with per-record cost `cycles_per_record` spends on a
/// batch of `n` records: the *single home* of the charge formula. Both
/// [`Detector::processing_cycles`] and the session's machine-thread charge
/// (which cannot ask a detector that lives on a worker thread) go through
/// here.
pub(crate) fn batch_processing_cycles(cycles_per_record: u64, n: usize) -> u64 {
    cycles_per_record * n as u64
}

#[derive(Debug, Default, Clone, Copy)]
struct PcCounters {
    records: u64,
    true_sharing: u64,
    false_sharing: u64,
}

/// One source line's aggregated detector state. The line is an index into
/// the [`LineAggregates::lines`] table it travels with, so building and
/// shipping an aggregate copies no string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LineAgg {
    /// Index of the source line in the line table (the `<unknown>:0`
    /// sentinel's for PCs with no debug info).
    pub(crate) line: u32,
    /// Whether the line is a real source location. The repair trigger only
    /// considers known lines: PCs without debug info are skipped.
    pub(crate) known: bool,
    pub(crate) records: u64,
    pub(crate) true_sharing: u64,
    pub(crate) false_sharing: u64,
    /// PCs contributing to this line, ascending and deduplicated.
    pub(crate) pcs: Vec<Pc>,
}

/// A detector's per-line aggregates: the *single* shape both derivations
/// ([`trigger_pcs_from`], [`report_lines_from`]) consume. The repair
/// trigger is derived from them on an inline session, the end-of-run report
/// on every session, so nothing user-visible depends on where the detector
/// ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LineAggregates {
    /// The detector's line table: the program's distinct source locations
    /// and the `<unknown>:0` sentinel, ascending. Shared, not copied — an
    /// armed session builds aggregates after every batch.
    pub(crate) lines: Arc<[SourceLoc]>,
    /// One entry per line with records, ascending by `line` — which, the
    /// table being sorted, is ascending by source location.
    pub(crate) aggs: Vec<LineAgg>,
}

impl LineAggregates {
    /// The aggregates hottest line first, ties broken by source location
    /// (`aggs` is in location order and the sort is stable).
    fn hottest_first(&self) -> Vec<&LineAgg> {
        let mut aggs: Vec<&LineAgg> = self.aggs.iter().collect();
        aggs.sort_by_key(|agg| std::cmp::Reverse(agg.records));
        aggs
    }

    fn loc(&self, agg: &LineAgg) -> &SourceLoc {
        &self.lines[agg.line as usize]
    }
}

/// The repair-trigger PC set derived from aggregates: PCs of known source
/// lines whose contention is dominated by false sharing and whose HITM-record
/// rate exceeds `min_line_rate` (Section 4.4).
pub(crate) fn trigger_pcs_from(
    aggs: &LineAggregates,
    elapsed_seconds: f64,
    min_line_rate: f64,
) -> Vec<Pc> {
    let elapsed = elapsed_seconds.max(1e-9);
    let mut pcs = Vec::new();
    for agg in &aggs.aggs {
        if !agg.known {
            continue;
        }
        let rate = agg.records as f64 / elapsed;
        if rate >= min_line_rate && agg.false_sharing > agg.true_sharing && agg.false_sharing >= 2 {
            pcs.extend(agg.pcs.iter().copied());
        }
    }
    pcs.sort_unstable();
    pcs.dedup();
    pcs
}

/// The end-of-run report lines derived from aggregates, with the rate
/// threshold applied.
pub(crate) fn report_lines_from(
    aggs: &LineAggregates,
    elapsed_seconds: f64,
    rate_threshold: f64,
) -> Vec<LineReport> {
    let elapsed = elapsed_seconds.max(1e-9);
    aggs.hottest_first()
        .into_iter()
        .map(|agg| (agg, agg.records as f64 / elapsed))
        .filter(|(_, rate_per_sec)| *rate_per_sec >= rate_threshold)
        .map(|(agg, rate_per_sec)| LineReport {
            location: aggs.loc(agg).clone(),
            hitm_records: agg.records,
            rate_per_sec,
            true_sharing_events: agg.true_sharing,
            false_sharing_events: agg.false_sharing,
            kind: Detector::classify(agg.records, agg.true_sharing, agg.false_sharing),
            pcs: agg.pcs.clone(),
        })
        .collect()
}

/// Everything the detector knows about one instruction of the program: the
/// answers of the PC filter, the load/store sets and the line table, computed
/// once at [`Detector::new`], beside the counters its records bump.
#[derive(Debug, Clone, Copy)]
struct PcEntry {
    counters: PcCounters,
    /// Index of the instruction's source line in the line table.
    line: u32,
    /// Whether the instruction has debug info (`line` is not the sentinel's).
    known: bool,
    /// Whether the PC filter keeps the instruction's records.
    keep: bool,
    /// Access size and is-a-store from the binary's load/store sets (a
    /// read-modify-write counts as a store); `None` when the instruction is
    /// not a memory instruction.
    access: Option<(u8, bool)>,
}

/// The address ranges of one kind of mapping, ascending and disjoint, behind
/// their hull: nearly every address a record carries lies outside it.
#[derive(Debug)]
struct AddrRanges {
    lo: Addr,
    hi: Addr,
    ranges: Vec<(Addr, Addr)>,
}

impl AddrRanges {
    /// The regions of `map` whose kind satisfies `wanted`.
    /// [`MemoryMap::regions`] is ordered by start and [`MemoryMap::add`]
    /// forbids overlaps, so membership in these ranges is exactly "the region
    /// containing the address has a wanted kind".
    fn of(map: &MemoryMap, wanted: impl Fn(RegionKind) -> bool) -> Self {
        let regions = map.regions().iter().filter(|r| wanted(r.kind));
        let ranges: Vec<(Addr, Addr)> = regions.map(|r| (r.start, r.end)).collect();
        AddrRanges {
            lo: ranges.first().map_or(0, |r| r.0),
            hi: ranges.last().map_or(0, |r| r.1),
            ranges,
        }
    }

    #[inline]
    fn contains(&self, addr: Addr) -> bool {
        self.lo <= addr
            && addr < self.hi
            && self.ranges.iter().any(|&(lo, hi)| lo <= addr && addr < hi)
    }
}

/// A record's place in the order the cache-line model consumes a batch in:
/// by timestamp, ties by position in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OrderKey {
    cycle: u64,
    index: usize,
}

/// Core ids the run merge buckets by: the machine's core cap. A record naming
/// a higher core takes the sort fallback.
const MAX_RUN_CORES: usize = 128;

/// Orders a batch the way a stable sort by `cycle` would, and keeps its
/// buffers across batches.
///
/// A batch is a concatenation of per-core PEBS bursts, and one core's records
/// are already in timestamp order. So the keys are bucketed by core — a
/// stable counting pass, one ascending run per core — and the runs merged
/// pairwise: `log2(cores)` passes over 16-byte keys, where sorting the batch
/// takes `log2(n / burst)` passes over 32-byte records. Nothing makes a
/// caller of [`Detector::process`] respect that shape; when a run is not
/// ascending (or a core id is beyond [`MAX_RUN_CORES`]) the keys are sorted
/// instead, which yields the same permutation.
#[derive(Debug, Default)]
struct BatchOrder {
    keys: Vec<OrderKey>,
    scratch: Vec<OrderKey>,
    /// Per core: where its run starts in `keys`; while scattering, where its
    /// next key goes.
    cursors: Vec<usize>,
    /// Run `i` is `keys[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    scratch_bounds: Vec<usize>,
}

impl BatchOrder {
    /// The keys of `records`, ascending: the permutation of a stable sort by
    /// `cycle`.
    fn stable_by_cycle(&mut self, records: &[HitmRecord]) -> &[OrderKey] {
        if self.bucket_by_core(records) {
            while self.bounds.len() > 2 {
                self.merge_adjacent_runs();
            }
        } else {
            self.keys.clear();
            let keys = records.iter().enumerate();
            self.keys.extend(keys.map(|(index, r)| OrderKey {
                cycle: r.cycle,
                index,
            }));
            self.keys.sort_unstable();
        }
        &self.keys
    }

    /// Lay the keys out as one run per core, in batch order within a run.
    /// False when that is not a set of ascending runs.
    fn bucket_by_core(&mut self, records: &[HitmRecord]) -> bool {
        let BatchOrder {
            keys,
            cursors,
            bounds,
            ..
        } = self;
        cursors.clear();
        for r in records {
            let core = r.core.0;
            if core >= MAX_RUN_CORES {
                return false;
            }
            if core >= cursors.len() {
                cursors.resize(core + 1, 0);
            }
            cursors[core] += 1;
        }
        bounds.clear();
        let mut start = 0;
        for cursor in cursors.iter_mut() {
            let count = std::mem::replace(cursor, start);
            if count > 0 {
                bounds.push(start);
            }
            start += count;
        }
        bounds.push(start);
        keys.clear();
        keys.resize(records.len(), OrderKey { cycle: 0, index: 0 });
        for (index, r) in records.iter().enumerate() {
            let at = &mut cursors[r.core.0];
            keys[*at] = OrderKey {
                cycle: r.cycle,
                index,
            };
            *at += 1;
        }
        bounds
            .windows(2)
            .all(|run| keys[run[0]..run[1]].is_sorted_by_key(|key| key.cycle))
    }

    /// One merge pass: runs 0 and 1 become one run, 2 and 3 the next, and so
    /// on. Keys compare by `(cycle, index)`, so a timestamp shared by two
    /// cores resolves by batch position, as in a stable sort.
    fn merge_adjacent_runs(&mut self) {
        let BatchOrder {
            keys,
            scratch,
            bounds,
            scratch_bounds,
            ..
        } = self;
        scratch.clear();
        scratch.reserve(keys.len());
        scratch_bounds.clear();
        for pair in bounds.windows(3).step_by(2) {
            scratch_bounds.push(pair[0]);
            let (mut a, mut b) = (&keys[pair[0]..pair[1]], &keys[pair[1]..pair[2]]);
            while let (Some(x), Some(y)) = (a.first(), b.first()) {
                if x <= y {
                    scratch.push(*x);
                    a = &a[1..];
                } else {
                    scratch.push(*y);
                    b = &b[1..];
                }
            }
            scratch.extend_from_slice(a);
            scratch.extend_from_slice(b);
        }
        if bounds.len().is_multiple_of(2) {
            // An odd run out: carried over as it is.
            let last = bounds[bounds.len() - 2];
            scratch_bounds.push(last);
            scratch.extend_from_slice(&keys[last..]);
        }
        scratch_bounds.push(keys.len());
        std::mem::swap(keys, scratch);
        std::mem::swap(bounds, scratch_bounds);
    }
}

/// The sentinel source location of PCs without debug info.
fn unknown_loc() -> SourceLoc {
    SourceLoc::new("<unknown>", 0)
}

/// The program's distinct source locations and the sentinel, ascending.
fn line_table(program: &Program) -> Arc<[SourceLoc]> {
    let unknown = unknown_loc();
    let mut locs: Vec<&SourceLoc> = vec![&unknown];
    for (pc, _) in program.iter_pcs() {
        // Neighbouring instructions mostly share a line: skip the repeats
        // before sorting strings.
        match program.source_of(pc) {
            Some(loc) if locs.last() != Some(&loc) => locs.push(loc),
            _ => {}
        }
    }
    locs.sort_unstable();
    locs.dedup();
    locs.into_iter().cloned().collect()
}

/// The id of `loc`, which is in `lines`.
fn line_id(lines: &[SourceLoc], loc: &SourceLoc) -> u32 {
    lines.partition_point(|l| l < loc) as u32
}

/// The online contention detector.
#[derive(Debug)]
pub struct Detector {
    /// PC of `table[0]`; `table[i]` is the instruction at
    /// `base_pc + i * INST_BYTES`.
    base_pc: Pc,
    table: Vec<PcEntry>,
    /// Record counts of kept PCs that are not in the table: library code,
    /// unaligned PCs, and application-region PCs past the program's end.
    /// They have no load/store-set entry and no debug info, so records are
    /// all they count.
    spill: BTreeMap<Pc, u64>,
    /// Application and library code: what the PC filter keeps.
    code: AddrRanges,
    /// Thread stacks: what the stack filter drops.
    stacks: AddrRanges,
    lines: Arc<[SourceLoc]>,
    unknown_line: u32,
    model: CacheLineModel,
    order: BatchOrder,
    total_records: u64,
    dropped_non_code: u64,
    dropped_stack: u64,
    detector_cycles_per_record: u64,
}

impl Detector {
    /// Create a detector for `program` running in the address space described
    /// by `map`. The program binary is analysed up front: its load/store
    /// sets, the PC filter's verdict and the source line of every
    /// instruction go into one table indexed by PC.
    pub fn new(config: &LaserConfig, program: &Program, map: &MemoryMap) -> Self {
        let memsets = MemAccessSets::analyze(program);
        let code = AddrRanges::of(map, |kind| {
            matches!(kind, RegionKind::AppCode | RegionKind::LibCode)
        });
        let stacks = AddrRanges::of(map, |kind| matches!(kind, RegionKind::Stack(_)));
        let lines = line_table(program);
        let unknown_line = line_id(&lines, &unknown_loc());
        let mut table: Vec<PcEntry> = program
            .iter_pcs()
            .map(|(pc, _)| {
                let loc = program.source_of(pc);
                PcEntry {
                    counters: PcCounters::default(),
                    line: loc.map_or(unknown_line, |loc| line_id(&lines, loc)),
                    known: loc.is_some(),
                    keep: code.contains(pc),
                    access: None,
                }
            })
            .collect();
        // Loads first, stores over them: a read-modify-write is in both sets
        // and counts as a store.
        let base_pc = program.base_pc();
        let loads = memsets.loads().map(|(pc, size)| (pc, size, false));
        let stores = memsets.stores().map(|(pc, size)| (pc, size, true));
        for (pc, size, is_write) in loads.chain(stores) {
            table[((pc - base_pc) / INST_BYTES) as usize].access = Some((size, is_write));
        }
        Detector {
            base_pc,
            table,
            spill: BTreeMap::new(),
            code,
            stacks,
            lines,
            unknown_line,
            model: CacheLineModel::new(),
            order: BatchOrder::default(),
            total_records: 0,
            dropped_non_code: 0,
            dropped_stack: 0,
            detector_cycles_per_record: config.detector_cycles_per_record,
        }
    }

    /// Feed a batch of records through the pipeline. Returns the number of
    /// records that survived filtering.
    ///
    /// Records arrive from the driver in per-core bursts (each PEBS buffer is
    /// drained on its own interrupt); the cache-line model has to see the
    /// true inter-thread interleaving, so the batch is consumed in the order
    /// of a stable sort by record timestamp: ascending `cycle`, records with
    /// equal timestamps in batch order. The batch itself is neither copied
    /// nor moved: what gets ordered is a 16-byte key per record, by merging
    /// the per-core runs (see the module docs' "Hot path").
    pub fn process(&mut self, records: &[HitmRecord]) -> usize {
        let Detector {
            base_pc,
            table,
            spill,
            code,
            stacks,
            model,
            order,
            ..
        } = self;
        let mut kept = 0;
        let mut non_code = 0;
        let mut stack = 0;
        for key in order.stable_by_cycle(records) {
            let r = &records[key.index];
            let offset = r.pc.wrapping_sub(*base_pc);
            let entry = usize::try_from(offset / INST_BYTES)
                .ok()
                .filter(|_| offset.is_multiple_of(INST_BYTES))
                .and_then(|slot| table.get_mut(slot));
            // A PC that is not an instruction of the program has no table
            // entry: the PC filter is asked the long way.
            let is_code = match &entry {
                Some(entry) => entry.keep,
                None => code.contains(r.pc),
            };
            if !is_code {
                non_code += 1;
                continue;
            }
            if stacks.contains(r.data_addr) {
                stack += 1;
                continue;
            }
            kept += 1;
            let Some(entry) = entry else {
                *spill.entry(r.pc).or_default() += 1;
                continue;
            };
            entry.counters.records += 1;
            // Classification needs the access kind and size from the binary's
            // load/store sets; records whose (possibly imprecise) PC is not a
            // memory instruction contribute to location detection only.
            if let Some((size, is_write)) = entry.access {
                match model.observe(r.data_addr, size, is_write, r.pc) {
                    Some(SharingClass::TrueSharing) => entry.counters.true_sharing += 1,
                    Some(SharingClass::FalseSharing) => entry.counters.false_sharing += 1,
                    None => {}
                }
            }
        }
        self.total_records += records.len() as u64;
        self.dropped_non_code += non_code;
        self.dropped_stack += stack;
        kept
    }

    /// Cycles the detector process spends handling `n` records; the system
    /// charges this to the machine because the detector shares the chip with
    /// the application.
    pub fn processing_cycles(&self, n: usize) -> u64 {
        batch_processing_cycles(self.detector_cycles_per_record, n)
    }

    /// Total records received so far (before filtering).
    pub fn records_received(&self) -> u64 {
        self.total_records
    }

    /// Every PC that has received a record the filters kept, ascending: the
    /// table's and the spill map's, a spill PC as the entry the table would
    /// hold for it — no debug info, not a memory instruction.
    fn seen_pcs(&self) -> Vec<(Pc, PcEntry)> {
        let table = (self.base_pc..)
            .step_by(INST_BYTES as usize)
            .zip(&self.table)
            .filter(|(_, entry)| entry.counters.records > 0)
            .map(|(pc, entry)| (pc, *entry));
        let spill = self.spill.iter().map(|(&pc, &records)| {
            let counters = PcCounters {
                records,
                ..PcCounters::default()
            };
            let entry = PcEntry {
                counters,
                line: self.unknown_line,
                known: false,
                keep: true,
                access: None,
            };
            (pc, entry)
        });
        let mut seen: Vec<(Pc, PcEntry)> = table.chain(spill).collect();
        // Each half is ascending; spill PCs can lie on either side of the
        // table's and, unaligned, between them.
        seen.sort_unstable_by_key(|&(pc, _)| pc);
        seen
    }

    /// This detector's per-line aggregates, sorted by source location: the
    /// one thing the detector answers with. An inline session reads them
    /// after a batch while repair is armed ([`trigger_pcs_from`]);
    /// [`Detector::report`] derives
    /// the end-of-run report from them ([`report_lines_from`]), inline and
    /// pipelined alike.
    pub(crate) fn line_aggregates(&self) -> LineAggregates {
        let mut by_line: Vec<Option<LineAgg>> = vec![None; self.lines.len()];
        for (pc, entry) in self.seen_pcs() {
            let agg = by_line[entry.line as usize].get_or_insert_with(|| LineAgg {
                line: entry.line,
                // As decided by the line's lowest PC.
                known: entry.known,
                records: 0,
                true_sharing: 0,
                false_sharing: 0,
                pcs: Vec::new(),
            });
            agg.records += entry.counters.records;
            agg.true_sharing += entry.counters.true_sharing;
            agg.false_sharing += entry.counters.false_sharing;
            // `seen_pcs` is ascending, so each line's list stays sorted and
            // duplicate-free without a post-pass.
            agg.pcs.push(pc);
        }
        LineAggregates {
            lines: Arc::clone(&self.lines),
            aggs: by_line.into_iter().flatten().collect(),
        }
    }

    /// Fold another detector's observations into this one; both must have
    /// been built for the same program. No session calls this any more —
    /// sharded detection was cut — but the repository benchmark's
    /// `core.detector.absorb_us` metric still measures it, so it stays until
    /// a benchmark issue retires the metric.
    ///
    /// Per-PC counters and totals sum; the cache-line model merges through a
    /// sorted insert ([`CacheLineModel::absorb`]). When the two detectors
    /// were fed disjoint sets of cache lines — the shards' state under
    /// line-hash routing — absorbing one into the other reconstructs
    /// precisely the detector a single run over all records would hold.
    pub fn absorb(&mut self, other: Detector) {
        assert_eq!(
            (self.base_pc, self.table.len()),
            (other.base_pc, other.table.len()),
            "absorbed detector was built for another program"
        );
        for (to, from) in self.table.iter_mut().zip(&other.table) {
            to.counters.records += from.counters.records;
            to.counters.true_sharing += from.counters.true_sharing;
            to.counters.false_sharing += from.counters.false_sharing;
        }
        for (pc, records) in other.spill {
            *self.spill.entry(pc).or_default() += records;
        }
        self.model.absorb(other.model);
        self.total_records += other.total_records;
        self.dropped_non_code += other.dropped_non_code;
        self.dropped_stack += other.dropped_stack;
    }

    fn classify(records: u64, ts: u64, fs: u64) -> ContentionKind {
        let evidence = ts + fs;
        if evidence == 0 || (evidence as f64) < (records as f64) * 0.15 {
            // Not enough (or not trustworthy enough) data-address evidence —
            // the paper's linear_regression case, where write-triggered
            // records have very low data-address accuracy.
            return ContentionKind::Unknown;
        }
        if fs >= ts {
            ContentionKind::FalseSharing
        } else {
            ContentionKind::TrueSharing
        }
    }

    /// Produce the report, applying `rate_threshold` (HITM records per second
    /// of benchmark time). The threshold is applied here, offline, so it can
    /// be adjusted without rerunning the program — exactly as the paper
    /// describes.
    pub fn report(
        &self,
        workload: &str,
        elapsed_seconds: f64,
        rate_threshold: f64,
        repair_invoked: bool,
    ) -> ContentionReport {
        let lines = report_lines_from(&self.line_aggregates(), elapsed_seconds, rate_threshold);
        ContentionReport {
            workload: workload.to_string(),
            lines,
            total_records: self.total_records,
            dropped_non_code: self.dropped_non_code,
            dropped_stack: self.dropped_stack,
            elapsed_seconds,
            repair_invoked,
            // Ground truth the detector cannot see from sampled records; the
            // session fills it in from machine statistics.
            remote_hitm_share: 0.0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) mod oracle;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::memmap::{Region, RegionKind};
    use laser_machine::CoreId;

    /// A program with one store line (line 10) and one load line (line 20).
    fn program() -> Program {
        let mut b = ProgramBuilder::new("det");
        let blk = b.block("main");
        b.switch_to(blk);
        b.source("det.c", 10);
        b.store(Operand::Imm(1), Reg(0), 0, 8); // pc base+0
        b.source("det.c", 20);
        b.load(Reg(1), Reg(0), 8, 8); // pc base+4
        b.source("det.c", 30);
        b.nop(); // pc base+8
        b.halt();
        b.finish()
    }

    fn map(p: &Program) -> MemoryMap {
        let mut m = MemoryMap::new();
        m.add(Region::new(
            p.base_pc(),
            p.end_pc() + 0x1000,
            RegionKind::AppCode,
            "det",
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

    fn record(pc: Pc, addr: u64, cycle: u64) -> HitmRecord {
        HitmRecord {
            pc,
            data_addr: addr,
            core: CoreId(0),
            cycle,
        }
    }

    #[test]
    fn spurious_and_stack_records_are_dropped() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let kept = d.process(&[
            record(0xdead_0000, 0x1000_0000, 1), // PC outside code
            record(p.base_pc(), 0x7f00_0080, 2), // stack data address
            record(p.base_pc(), 0x1000_0000, 3), // good
        ]);
        assert_eq!(kept, 1);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_non_code, 1);
        assert_eq!(r.dropped_stack, 1);
        assert_eq!(r.total_records, 3);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].location.line, 10);
    }

    #[test]
    fn rate_threshold_filters_cold_lines() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // 1000 records on line 10, 2 records on line 20.
        let mut records = Vec::new();
        for i in 0..1000 {
            records.push(record(p.base_pc(), 0x1000_0000 + (i % 2) * 8, i));
        }
        records.push(record(p.base_pc() + 4, 0x1000_0100, 2000));
        records.push(record(p.base_pc() + 4, 0x1000_0108, 2001));
        d.process(&records);
        // Over 1 second: line 10 at 1000/s, line 20 at 2/s.
        let r = d.report("det", 1.0, 100.0, false);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].location.line, 10);
        // Lowering the threshold offline brings line 20 back.
        let r = d.report("det", 1.0, 1.0, false);
        assert_eq!(r.lines.len(), 2);
    }

    #[test]
    fn false_sharing_is_classified_and_feeds_repair_trigger() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Alternating disjoint 8-byte writes within one 64-byte line.
        let mut records = Vec::new();
        for i in 0..500u64 {
            let addr = 0x1000_0000 + (i % 2) * 8;
            records.push(record(p.base_pc(), addr, i));
        }
        d.process(&records);
        let aggs = d.line_aggregates();
        assert_eq!(aggs.aggs.len(), 1);
        assert!(aggs.aggs[0].false_sharing > 400);
        assert_eq!(aggs.aggs[0].true_sharing, 0);
        // 500 records over a second: the line triggers repair at 400/s, not
        // at 600/s.
        assert_eq!(trigger_pcs_from(&aggs, 1.0, 400.0), vec![p.base_pc()]);
        assert!(trigger_pcs_from(&aggs, 1.0, 600.0).is_empty());
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.lines[0].kind, ContentionKind::FalseSharing);
    }

    #[test]
    fn true_sharing_is_classified() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Store and load of the *same* 8 bytes, alternating PCs.
        let mut records = Vec::new();
        for i in 0..500u64 {
            let pc = if i % 2 == 0 {
                p.base_pc()
            } else {
                p.base_pc() + 4
            };
            records.push(record(pc, 0x1000_0000, i));
        }
        d.process(&records);
        let aggs = d.line_aggregates();
        assert!(aggs.aggs.iter().map(|agg| agg.true_sharing).sum::<u64>() > 400);
        let r = d.report("det", 1.0, 0.0, false);
        assert!(r
            .lines
            .iter()
            .all(|l| l.kind == ContentionKind::TrueSharing));
        assert!(trigger_pcs_from(&aggs, 1.0, 0.0).is_empty());
    }

    #[test]
    fn scant_evidence_is_reported_unknown() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Records whose addresses are scattered over unmapped space (the
        // write-write imprecision case): lots of records, no usable evidence.
        let mut records = Vec::new();
        for i in 0..300u64 {
            records.push(record(p.base_pc(), 0x4000_0000_0000 + i * 4096, i));
        }
        d.process(&records);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.lines[0].kind, ContentionKind::Unknown);
    }

    #[test]
    fn pc_filter_keeps_library_code_but_drops_everything_else() {
        let p = program();
        let mut m = map(&p);
        m.add(Region::new(
            0x9000_0000,
            0x9100_0000,
            RegionKind::LibCode,
            "libc",
        ));
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let kept = d.process(&[
            record(p.base_pc(), 0x1000_0000, 1), // application code: kept
            record(0x9000_0100, 0x1000_0000, 2), // library code: kept
            record(0x9100_0100, 0x1000_0000, 3), // past the library: dropped
            record(0x1000_0000, 0x1000_0000, 4), // PC in the heap: dropped
            record(0x7f00_0010, 0x1000_0000, 5), // PC in a stack: dropped
        ]);
        assert_eq!(kept, 2);
        assert_eq!(d.records_received(), 5);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_non_code, 3);
        assert_eq!(r.dropped_stack, 0);
    }

    #[test]
    fn stack_filter_drops_records_before_aggregation() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Every record has a valid PC but a stack data address: the PC filter
        // passes them, the stack filter must still keep them out of the
        // per-line aggregation entirely.
        let records: Vec<HitmRecord> = (0..50)
            .map(|i| record(p.base_pc(), 0x7f00_0000 + i * 8, i))
            .collect();
        assert_eq!(d.process(&records), 0);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_stack, 50);
        assert!(
            r.lines.is_empty(),
            "stack records must not create report lines"
        );
        assert!(d.line_aggregates().aggs.is_empty());
    }

    #[test]
    fn threshold_reapplication_is_offline_and_nested() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let mut records = Vec::new();
        for i in 0..800 {
            records.push(record(p.base_pc(), 0x1000_0000 + (i % 2) * 8, i));
        }
        for i in 0..40u64 {
            records.push(record(p.base_pc() + 4, 0x1000_0100 + (i % 2) * 8, 1000 + i));
        }
        d.process(&records);
        // Re-applying ever-higher thresholds to the same detector state never
        // reprocesses records and only ever shrinks the report.
        let received = d.records_received();
        let mut last_len = usize::MAX;
        for threshold in [0.0, 10.0, 100.0, 500.0, 1_000_000.0] {
            let r = d.report("det", 1.0, threshold, false);
            assert!(
                r.lines.len() <= last_len,
                "threshold {threshold} grew the report"
            );
            // Lines surviving a higher threshold are a subset of those
            // surviving a lower one.
            assert!(r.lines.iter().all(|l| l.rate_per_sec >= threshold));
            assert_eq!(
                d.records_received(),
                received,
                "report() must not mutate state"
            );
            last_len = r.lines.len();
        }
        assert_eq!(d.report("det", 1.0, 0.0, false).lines.len(), 2);
        assert_eq!(d.report("det", 1.0, 1_000_000.0, false).lines.len(), 0);
    }

    #[test]
    fn processing_cost_scales_with_records() {
        let p = program();
        let m = map(&p);
        let d = Detector::new(&LaserConfig::default(), &p, &m);
        assert_eq!(d.processing_cycles(0), 0);
        assert!(d.processing_cycles(100) > d.processing_cycles(10));
    }
}
