//! Persistent, content-addressed cell-result cache.
//!
//! `experiments all` recomputes every `(workload, tool, topology)` cell from
//! scratch on every invocation. This module makes campaigns *incremental*: a
//! [`CellCache`] keys each cell by a stable fingerprint of its full
//! configuration — workload name, build options, tool key, topology preset,
//! per-cell budget and pipeline deployment — and stores the finished
//! [`CellResult`] on disk as compact JSON (via the `serde::json` shim). A
//! [`Grid`](crate::grid::Grid) holding a cache consults it before
//! simulating a cell and writes the result back after, so a repeated or
//! incrementally-changed campaign only pays for the cells that changed.
//!
//! Determinism is the load-bearing property. Every cell simulation is
//! deterministic, so a cache hit returns *exactly* the bytes a fresh
//! simulation would have produced, and a warm-cache rerun of any experiment
//! is byte-identical to its cold run in every output format
//! (`tests/cache_service.rs` pins this). To keep that true:
//!
//! * the fingerprint is a hand-rolled FNV-1a over a canonical key/value
//!   rendering of the config — no [`std::collections::HashMap`] iteration,
//!   no pointer hashing, no process-seeded state — so identical configs
//!   fingerprint identically across processes and hosts;
//! * the canonical config string is stored *inside* the cache file and
//!   verified on load, so a fingerprint collision degrades to a miss, never
//!   to a wrong result;
//! * every cell configuration is deterministic (budgets count simulated
//!   steps), and only deterministic outcomes are cached: successful runs,
//!   Sheriff compatibility verdicts and step-budget exhaustion. Errors and
//!   panics always re-simulate.
//!
//! Simulation-semantics changes are handled by [`CACHE_SALT`]: the salt is
//! written into every cache file and checked on load, so bumping it (one
//! constant, whenever a change makes old cycle counts stale) invalidates
//! every stored cell at once. Salt mismatches are counted separately from
//! plain misses in [`CacheStats`], which campaigns surface on stderr and in
//! the cache-stats JSON report — never on stdout, which must stay
//! byte-identical between cold and warm runs.
//!
//! # What a hit costs
//!
//! A warm `experiments all` is almost nothing but hits, so a hit is kept
//! close to its file read. [`CellCache::load`] renders the canonical config
//! once and hashes it into the file name (both FNV-1a chains in one pass
//! over the bytes). It opens the entry and reads it (≈ 430–1,400 bytes) into
//! a buffer sized for any real entry, with no size probe. Then it decodes
//! the text in one pass straight off a [`Reader`], with no `Value` tree:
//! each object is one key-dispatch loop, the stored config is compared with
//! the rendering in place, and nothing but the returned cell is allocated.
//! Measured per hit over the 245 entries of a scale-2 `experiments all`
//! store (one thread, optimised build, 2-CPU host; the fastest of repeated
//! passes): rendering ≈ 0.4 µs, fingerprint ≈ 0.5, file name ≈ 0.2, file
//! read ≈ 1.8–2.1, decode and checks ≈ 1.5 (the tokenizer ≈ 1.1 of it) —
//! ≈ 4.7 µs in all, against ≈ 8.4 µs while every entry became a `Value`
//! tree first and ≈ 31 µs while that parser was quadratic. Nothing is
//! memoised: every lookup reads and verifies its file. The tree decoder is
//! kept as the `#[cfg(test)]` reference (`cache/reference.rs`), and the
//! tests hold both to the same outcome on every hostile entry.
//!
//! # What a hostile or damaged entry can do
//!
//! [`CellCache::load`] never panics, aborts or hangs on a file's contents: an
//! unreadable or non-UTF-8 file, malformed or too deeply nested JSON, a wrong
//! shape, a stale salt or another config's entry is a miss (or, for the
//! salt, an invalidation), and the cell is simulated. What it *cannot*
//! detect is a well-formed edit of a value — a flipped digit inside
//! `"cycles"`, a changed rate, a duplicated key (the first one wins, as
//! `Value::get` finds it; later ones are skipped but still syntax-checked,
//! like unknown keys): entries carry no checksum, so such an entry is served
//! as written, with the config's workload and tool but the edited numbers.
//! The store is trusted like the build directory is; delete it (or bump
//! [`CACHE_SALT`]) if it may have been tampered with.

use std::borrow::Cow;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use laser_baselines::SheriffFailure;
use laser_core::{ContentionKind, StopReason};
use serde::json::{ParseError, Reader, Value};

use crate::campaign::CellResult;
pub use crate::config::CellConfig;
use crate::tool::{PebsAccuracy, ReportedLine, ToolFailure, ToolRun};

/// Version salt baked into every cache file.
///
/// Bump this whenever a change alters simulation semantics (cost model,
/// scheduler, detector, repair policy, …) so that previously stored cycle
/// counts no longer reflect what a fresh run would produce. Every stored
/// cell carries the salt it was written under; a mismatch on load counts as
/// `invalidated` and the cell is re-simulated and re-stored.
pub const CACHE_SALT: u32 = 1;

/// Compute the cache fingerprint of a cell config: 32 lowercase hex digits
/// from two independent FNV-1a passes over [`CellConfig::canonical`].
///
/// Hand-rolled with fixed constants (no `std` hasher involvement) so the
/// fingerprint is identical across processes, builds and platforms.
pub fn fingerprint(config: &CellConfig) -> String {
    fingerprint_of(&config.canonical())
}

/// [`fingerprint`] of an already-rendered canonical config.
fn fingerprint_of(canonical: &str) -> String {
    // Two FNV-1a chains from different bases, run side by side in one pass
    // over the bytes: 128 bits total makes accidental collisions
    // implausible, and the stored canonical string catches the implausible
    // ones.
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;
    for &byte in canonical.as_bytes() {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    format!("{a:016x}{b:016x}")
}

/// Why a cache directory could not be opened.
#[derive(Debug)]
pub struct CacheError {
    /// The offending directory.
    pub dir: PathBuf,
    /// The underlying I/O error, as text.
    pub message: String,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot open cell cache at {}: {}",
            self.dir.display(),
            self.message
        )
    }
}

impl std::error::Error for CacheError {}

/// Hit/miss accounting for one cache over one process lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells answered from the store (not simulated).
    pub hits: u64,
    /// Cells simulated because no usable entry existed (absent, corrupt, or
    /// fingerprint-collision mismatch).
    pub misses: u64,
    /// Cells simulated because the stored entry carried a stale
    /// [`CACHE_SALT`].
    pub invalidated: u64,
    /// Cells written back to the store after simulating.
    pub stored: u64,
}

impl CacheStats {
    /// Cells that had to be simulated this run.
    pub fn simulated(&self) -> u64 {
        self.misses + self.invalidated
    }

    /// The stats as a JSON object (for `--cache-stats` reports and the
    /// service summary line).
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("hits", self.hits)
            .set("misses", self.misses)
            .set("invalidated", self.invalidated)
            .set("stored", self.stored)
            .set("simulated", self.simulated())
    }

    /// One-line human summary for stderr.
    pub fn render(&self) -> String {
        format!(
            "{} hit{}, {} simulated ({} miss{}, {} invalidated), {} stored",
            self.hits,
            if self.hits == 1 { "" } else { "s" },
            self.simulated(),
            self.misses,
            if self.misses == 1 { "" } else { "es" },
            self.invalidated,
            self.stored,
        )
    }
}

/// A persistent, content-addressed store of finished campaign cells.
///
/// One file per cell under the cache directory, named by the config
/// fingerprint. Shared across campaign worker threads behind an `Arc`;
/// loads and stores are lock-free except for the write-error slot. Write
/// failures never panic: the first failure is recorded and surfaced through
/// [`CellCache::write_error`], which the `experiments` binary turns into a
/// clean nonzero exit after the run.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    salt: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    stored: AtomicU64,
    write_error: Mutex<Option<String>>,
}

/// Two handles are equal when they address the same store under the same
/// salt; the per-process statistics are not part of a cache's identity.
impl PartialEq for CellCache {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir && self.salt == other.salt
    }
}

impl CellCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    /// [`CacheError`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, CacheError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CacheError {
            dir: dir.clone(),
            message: e.to_string(),
        })?;
        Ok(CellCache {
            dir,
            salt: CACHE_SALT,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            write_error: Mutex::new(None),
        })
    }

    /// Override the version salt (tests use this to prove a bump invalidates
    /// the whole store).
    pub fn with_salt(mut self, salt: u32) -> Self {
        self.salt = salt;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, fp: &str) -> PathBuf {
        self.dir.join(format!("{fp}.json"))
    }

    /// Look up a cell. `Some` is a hit: the returned result is byte-for-byte
    /// what the original simulation produced. `None` bumps the miss (or
    /// `invalidated`, on a salt mismatch) counter and the caller simulates.
    pub fn load(&self, config: &CellConfig) -> Option<CellResult> {
        // One rendering serves both the path and the stored-config check.
        let canonical = config.canonical();
        let Some(text) = read_file(&self.path_of(&fingerprint_of(&canonical))) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode_entry(&text, self.salt, &canonical, config) {
            Ok(cell) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            Err(EntryRejected::StaleSalt) => {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(EntryRejected::Unusable) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a finished cell, if its outcome is deterministic (see module
    /// docs). Failures to write are recorded — first one wins — and surfaced
    /// through [`CellCache::write_error`]; they never panic and never affect
    /// the in-memory result.
    pub fn store(&self, config: &CellConfig, cell: &CellResult) {
        if !outcome_is_cacheable(&cell.outcome) {
            return;
        }
        let entry = encode_entry(self.salt, config, cell).render();
        let fp = fingerprint(config);
        let path = self.path_of(&fp);
        // Write-then-rename so a concurrent reader (or a second service
        // process sharing the directory) never observes a half-written file.
        let tmp = self.dir.join(format!("{fp}.tmp.{}", std::process::id()));
        let result = fs::write(&tmp, entry.as_bytes())
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| format!("cache write {}: {e}", path.display()));
        match result {
            Ok(()) => {
                self.stored.fetch_add(1, Ordering::Relaxed);
            }
            Err(message) => {
                let _ = fs::remove_file(&tmp);
                #[expect(
                    clippy::unwrap_used,
                    reason = "lock poisoning only follows a panic already unwinding this run"
                )]
                let mut slot = self.write_error.lock().unwrap();
                slot.get_or_insert(message);
            }
        }
    }

    /// The accumulated stats of this process's loads and stores.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
        }
    }

    /// The first write failure, if any store failed. Binaries check this
    /// after a run and exit nonzero with the message.
    pub fn write_error(&self) -> Option<String> {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        self.write_error.lock().unwrap().clone()
    }
}

/// Bytes [`read_file`] reserves up front: a stored entry is ≈ 550–1,100.
const READ_CAPACITY: usize = 4096;

/// An entry file's text; `None` if it cannot be read or is not UTF-8.
///
/// `File::read_to_end` and `fs::read_to_string` first ask the file for its
/// size (a `statx` and a seek); read through `take`, the bytes go straight
/// into a buffer sized for any real entry.
fn read_file(path: &Path) -> Option<String> {
    let mut bytes = Vec::with_capacity(READ_CAPACITY);
    File::open(path)
        .ok()?
        .take(u64::MAX)
        .read_to_end(&mut bytes)
        .ok()?;
    String::from_utf8(bytes).ok()
}

/// Outcomes that are deterministic replays of the simulation: successful
/// runs, Sheriff's static compatibility verdicts, and step-budget trips
/// (steps are counted in simulated instructions, not real time). Errors and
/// panics are transient.
fn outcome_is_cacheable(outcome: &Result<ToolRun, ToolFailure>) -> bool {
    match outcome {
        Ok(_) => true,
        Err(ToolFailure::Unsupported(_)) => true,
        Err(ToolFailure::BudgetExceeded {
            reason: StopReason::StepBudget { .. },
        }) => true,
        Err(_) => false,
    }
}

/// Why a present cache file was not used.
#[derive(Debug, PartialEq, Eq)]
enum EntryRejected {
    /// Written under a different [`CACHE_SALT`].
    StaleSalt,
    /// Corrupt, truncated, wrong shape, or a config/fingerprint mismatch.
    Unusable,
}

const ENTRY_KIND: &str = "laser-cell";

fn encode_entry(salt: u32, config: &CellConfig, cell: &CellResult) -> Value {
    Value::object()
        .set("kind", ENTRY_KIND)
        .set("salt", salt)
        .set("config", config.canonical())
        .set("cell", encode_cell(cell))
}

/// Check, in order, the entry's kind, salt, stored canonical config
/// (`canonical` is `config.canonical()`, rendered once by the caller) and the
/// decoded cell's identity.
fn decode_entry(
    text: &str,
    salt: u32,
    canonical: &str,
    config: &CellConfig,
) -> Result<CellResult, EntryRejected> {
    let entry = read_entry(text, canonical).map_err(|_| EntryRejected::Unusable)?;
    if entry.kind != Some(true) {
        return Err(EntryRejected::Unusable);
    }
    match entry.salt {
        Some(Some(stored)) if stored == i64::from(salt) => {}
        Some(Some(_)) => return Err(EntryRejected::StaleSalt),
        _ => return Err(EntryRejected::Unusable),
    }
    if entry.config != Some(true) {
        return Err(EntryRejected::Unusable);
    }
    let cell = entry.cell.flatten().ok_or(EntryRejected::Unusable)?;
    // Belt and braces: the stored identity must match what the campaign
    // would label a fresh simulation of this config.
    if cell.workload != config.workload || cell.tool != config.cell_key() {
        return Err(EntryRejected::Unusable);
    }
    Ok(cell)
}

/// An entry's top-level fields, read in one pass. Each is the first
/// occurrence of its key, as [`Value::get`] would find it: `None` if the key
/// is absent, `Some(None)` if its value has the wrong type or shape.
#[derive(Default)]
struct EntryFields {
    /// Whether `"kind"` is [`ENTRY_KIND`].
    kind: Option<bool>,
    salt: Option<Option<i64>>,
    /// Whether `"config"` is the canonical rendering looked up.
    config: Option<bool>,
    cell: Option<Option<CellResult>>,
}

/// Read an entry's fields straight off a [`Reader`], with no tree. Every
/// object is one key-dispatch loop in which a key's first occurrence is
/// decoded and later duplicates and unknown keys are skipped, so keys may
/// come in any order. The whole text is syntax-checked: an error anywhere is
/// a [`ParseError`], as from [`Value::parse`].
fn read_entry(text: &str, canonical: &str) -> Result<EntryFields, ParseError> {
    let mut r = Reader::new(text);
    let mut entry = EntryFields::default();
    if r.enter_object()? {
        while let Some(key) = r.next_key()? {
            match &*key {
                "kind" if entry.kind.is_none() => entry.kind = Some(r.str_eq(ENTRY_KIND)?),
                "salt" if entry.salt.is_none() => entry.salt = Some(r.i64()?),
                "config" if entry.config.is_none() => entry.config = Some(r.str_eq(canonical)?),
                "cell" if entry.cell.is_none() => entry.cell = Some(read_cell(&mut r)?),
                _ => r.skip()?,
            }
        }
    }
    r.end()?;
    Ok(entry)
}

/// `Some(None)` for `null`, otherwise what `read` makes of the value.
fn nullable<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<Option<T>, ParseError>,
) -> Result<Option<Option<T>>, ParseError> {
    if r.null()? {
        return Ok(Some(None));
    }
    Ok(read(r)?.map(Some))
}

fn read_u64(r: &mut Reader<'_>) -> Result<Option<u64>, ParseError> {
    Ok(r.i64()?.and_then(|i| u64::try_from(i).ok()))
}

fn read_cell(r: &mut Reader<'_>) -> Result<Option<CellResult>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut workload, mut tool, mut run, mut failure) = (None, None, None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "workload" if workload.is_none() => workload = Some(r.str()?),
            "tool" if tool.is_none() => tool = Some(r.str()?),
            "run" if run.is_none() => run = Some(nullable(r, read_run)?),
            "failure" if failure.is_none() => failure = Some(nullable(r, read_failure)?),
            _ => r.skip()?,
        }
    }
    let (Some(workload), Some(tool), Some(run), Some(failure)) = (
        workload.flatten(),
        tool.flatten(),
        run.flatten(),
        failure.flatten(),
    ) else {
        return Ok(None);
    };
    let outcome = match (run, failure) {
        (Some(run), None) => Ok(run),
        (None, Some(failure)) => Err(failure),
        _ => return Ok(None),
    };
    Ok(Some(CellResult {
        workload: workload.into_owned(),
        tool: tool.into_owned(),
        outcome,
    }))
}

fn read_run(r: &mut Reader<'_>) -> Result<Option<ToolRun>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut cycles, mut reported, mut repair_invoked) = (None, None, None);
    let (mut driver, mut detector, mut events, mut remote) = (None, None, None, None);
    let mut accuracy = None;
    while let Some(key) = r.next_key()? {
        match &*key {
            "cycles" if cycles.is_none() => cycles = Some(read_u64(r)?),
            "reported" if reported.is_none() => reported = Some(read_lines(r)?),
            "repair_invoked" if repair_invoked.is_none() => repair_invoked = Some(r.bool()?),
            "driver_overhead_cycles" if driver.is_none() => driver = Some(read_u64(r)?),
            "detector_cycles" if detector.is_none() => detector = Some(read_u64(r)?),
            "hitm_events" if events.is_none() => events = Some(read_u64(r)?),
            "hitm_remote" if remote.is_none() => remote = Some(read_u64(r)?),
            "pebs_accuracy" if accuracy.is_none() => accuracy = Some(read_accuracy(r)?),
            _ => r.skip()?,
        }
    }
    Ok((|| {
        Some(ToolRun {
            cycles: cycles.flatten()?,
            reported: reported.flatten()?,
            repair_invoked: repair_invoked.flatten()?,
            driver_overhead_cycles: driver.flatten()?,
            detector_cycles: detector.flatten()?,
            hitm_events: events.flatten()?,
            hitm_remote: remote.flatten()?,
            // Optional: absent in every entry but a Figure 3 case's.
            pebs_accuracy: match accuracy {
                Some(counts) => Some(counts?),
                None => None,
            },
        })
    })())
}

/// A `"pebs_accuracy"` object: `None` unless it holds all three counts.
fn read_accuracy(r: &mut Reader<'_>) -> Result<Option<PebsAccuracy>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut addr, mut pc, mut adjacent) = (None, None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "addr_correct" if addr.is_none() => addr = Some(read_u64(r)?),
            "pc_exact" if pc.is_none() => pc = Some(read_u64(r)?),
            "pc_adjacent" if adjacent.is_none() => adjacent = Some(read_u64(r)?),
            _ => r.skip()?,
        }
    }
    Ok((|| {
        Some(PebsAccuracy {
            addr_correct: addr.flatten()?,
            pc_exact: pc.flatten()?,
            pc_adjacent: adjacent.flatten()?,
        })
    })())
}

/// A `"reported"` array: `None` if it is not an array or any item is bad
/// (the rest are still read).
fn read_lines(r: &mut Reader<'_>) -> Result<Option<Vec<ReportedLine>>, ParseError> {
    if !r.enter_array()? {
        return Ok(None);
    }
    let mut lines = Some(Vec::new());
    while r.next_item()? {
        match (read_line(r)?, &mut lines) {
            (Some(line), Some(lines)) => lines.push(line),
            _ => lines = None,
        }
    }
    Ok(lines)
}

fn read_line(r: &mut Reader<'_>) -> Result<Option<ReportedLine>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut label, mut file, mut line, mut kind) = (None, None, None, None);
    let (mut hitm_records, mut rate_per_sec) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "label" if label.is_none() => label = Some(r.str()?),
            "file" if file.is_none() => file = Some(nullable(r, Reader::str)?),
            "line" if line.is_none() => {
                line = Some(nullable(r, |r| {
                    Ok(r.i64()?.and_then(|i| u32::try_from(i).ok()))
                })?);
            }
            "kind" if kind.is_none() => kind = Some(nullable(r, read_kind)?),
            "hitm_records" if hitm_records.is_none() => hitm_records = Some(read_u64(r)?),
            "rate_per_sec" if rate_per_sec.is_none() => rate_per_sec = Some(r.f64()?),
            _ => r.skip()?,
        }
    }
    Ok((|| {
        Some(ReportedLine {
            label: label.flatten()?.into_owned(),
            file: file.flatten()?.map(Cow::into_owned),
            line: line.flatten()?,
            kind: kind.flatten()?,
            hitm_records: hitm_records.flatten()?,
            rate_per_sec: rate_per_sec.flatten()?,
        })
    })())
}

fn read_kind(r: &mut Reader<'_>) -> Result<Option<ContentionKind>, ParseError> {
    Ok(r.str()?.and_then(|kind| match &*kind {
        "false-sharing" => Some(ContentionKind::FalseSharing),
        "true-sharing" => Some(ContentionKind::TrueSharing),
        "unknown" => Some(ContentionKind::Unknown),
        _ => None,
    }))
}

/// A `"failure"` object: `"unsupported"` decides it when present, as the
/// encoder writes one key or the other.
fn read_failure(r: &mut Reader<'_>) -> Result<Option<ToolFailure>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut unsupported, mut step_budget) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "unsupported" if unsupported.is_none() => {
                unsupported = Some(r.str()?.and_then(|which| match &*which {
                    "crash" => Some(SheriffFailure::Crash),
                    "incompatible" => Some(SheriffFailure::Incompatible),
                    _ => None,
                }));
            }
            "step_budget" if step_budget.is_none() => step_budget = Some(read_step_budget(r)?),
            _ => r.skip()?,
        }
    }
    Ok(match (unsupported, step_budget) {
        (Some(which), _) => which.map(ToolFailure::Unsupported),
        (None, Some(reason)) => reason.map(|reason| ToolFailure::BudgetExceeded { reason }),
        (None, None) => None,
    })
}

fn read_step_budget(r: &mut Reader<'_>) -> Result<Option<StopReason>, ParseError> {
    if !r.enter_object()? {
        return Ok(None);
    }
    let (mut limit, mut used) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "limit" if limit.is_none() => limit = Some(read_u64(r)?),
            "used" if used.is_none() => used = Some(read_u64(r)?),
            _ => r.skip()?,
        }
    }
    Ok(limit
        .flatten()
        .zip(used.flatten())
        .map(|(limit, used)| StopReason::StepBudget { limit, used }))
}

fn encode_cell(cell: &CellResult) -> Value {
    let (run, failure) = match &cell.outcome {
        Ok(run) => (encode_run(run), Value::Null),
        Err(f) => (Value::Null, encode_failure(f)),
    };
    Value::object()
        .set("workload", cell.workload.as_str())
        .set("tool", cell.tool.as_str())
        .set("run", run)
        .set("failure", failure)
}

fn encode_run(run: &ToolRun) -> Value {
    let run_value = Value::object()
        .set("cycles", run.cycles)
        .set("repair_invoked", run.repair_invoked)
        .set("driver_overhead_cycles", run.driver_overhead_cycles)
        .set("detector_cycles", run.detector_cycles)
        .set("hitm_events", run.hitm_events)
        .set("hitm_remote", run.hitm_remote)
        .set(
            "reported",
            Value::Array(run.reported.iter().map(encode_line).collect()),
        );
    // Written only when present, so every other entry keeps its bytes.
    match run.pebs_accuracy {
        Some(counts) => run_value.set(
            "pebs_accuracy",
            Value::object()
                .set("addr_correct", counts.addr_correct)
                .set("pc_exact", counts.pc_exact)
                .set("pc_adjacent", counts.pc_adjacent),
        ),
        None => run_value,
    }
}

fn encode_line(line: &ReportedLine) -> Value {
    Value::object()
        .set("label", line.label.as_str())
        .set("file", line.file.clone())
        .set("line", line.line)
        .set(
            "kind",
            match line.kind {
                Some(ContentionKind::FalseSharing) => Value::Str("false-sharing".to_string()),
                Some(ContentionKind::TrueSharing) => Value::Str("true-sharing".to_string()),
                Some(ContentionKind::Unknown) => Value::Str("unknown".to_string()),
                None => Value::Null,
            },
        )
        .set("hitm_records", line.hitm_records)
        .set("rate_per_sec", line.rate_per_sec)
}

fn encode_failure(failure: &ToolFailure) -> Value {
    match failure {
        ToolFailure::Unsupported(SheriffFailure::Crash) => {
            Value::object().set("unsupported", "crash")
        }
        ToolFailure::Unsupported(SheriffFailure::Incompatible) => {
            Value::object().set("unsupported", "incompatible")
        }
        ToolFailure::BudgetExceeded {
            reason: StopReason::StepBudget { limit, used },
        } => Value::object().set(
            "step_budget",
            Value::object().set("limit", *limit).set("used", *used),
        ),
        // Uncacheable failures never reach the encoder (see
        // `outcome_is_cacheable`); encode to a shape the decoder rejects.
        _ => Value::object(),
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topofile::CustomTopology;
    use laser_core::{CellBudget, PipelineConfig, TopologySpec};
    use laser_machine::ThreadPlacement;
    use laser_workloads::BuildOptions;
    use std::sync::atomic::AtomicU32;

    mod hostile;

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("laser-cache-test-{}-{tag}-{n}", std::process::id()))
    }

    fn base_opts() -> BuildOptions {
        BuildOptions::default()
    }

    fn config<'a>(opts: &'a BuildOptions) -> CellConfig<'a> {
        CellConfig {
            workload: "histogram'",
            tool: "laser-detect",
            topology: TopologySpec::Flat,
            custom_topology: None,
            opts,
            budget: CellBudget::default(),
            pipeline: PipelineConfig::default(),
        }
    }

    fn sample_run() -> ToolRun {
        ToolRun {
            cycles: 123_456_789,
            reported: vec![
                ReportedLine {
                    label: "histogram.c:hist_update".to_string(),
                    file: Some("histogram.c".to_string()),
                    line: Some(77),
                    kind: Some(ContentionKind::FalseSharing),
                    hitm_records: 4821,
                    rate_per_sec: 1234.5625,
                },
                ReportedLine {
                    label: "anon".to_string(),
                    file: None,
                    line: None,
                    kind: None,
                    hitm_records: 3,
                    rate_per_sec: 0.125,
                },
            ],
            repair_invoked: true,
            driver_overhead_cycles: 4_200,
            detector_cycles: 1_900,
            hitm_events: 5_000,
            hitm_remote: 120,
            pebs_accuracy: None,
        }
    }

    /// A run carrying Figure 3's counts.
    fn accuracy_run() -> ToolRun {
        ToolRun {
            pebs_accuracy: Some(PebsAccuracy {
                addr_correct: 4_100,
                pc_exact: 1_700,
                pc_adjacent: 3_900,
            }),
            ..sample_run()
        }
    }

    fn sample_cell(outcome: Result<ToolRun, ToolFailure>) -> CellResult {
        CellResult {
            workload: "histogram'".to_string(),
            tool: "laser-detect".to_string(),
            outcome,
        }
    }

    #[test]
    fn fingerprint_is_pinned_across_processes_and_builds() {
        // The exact fingerprint of a fixed config is part of the on-disk
        // format: if this literal changes, every existing cache directory
        // silently stops hitting. Bump CACHE_SALT instead of editing this
        // pin unless the canonical rendering itself deliberately changed.
        // (Last deliberate change: `pipeline_driver_lag` joined the
        // canonical rendering when the three-stage charge-back landed.)
        let opts = base_opts();
        let fp = fingerprint(&config(&opts));
        assert_eq!(fp.len(), 32);
        assert!(fp.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(fp, fingerprint(&config(&opts)), "pure function");
        assert_eq!(fp, "8f5a794020bcd14449ca73c76a42b7bf");
    }

    #[test]
    fn budgeted_fingerprint_is_pinned() {
        // Like the pin above, for a step budget: its rendering keeps the
        // literal `budget_wall_ms=none` line, so budgeted entries written
        // while budgets could also be wall-clock ones keep hitting.
        let opts = base_opts();
        let budgeted = CellConfig {
            budget: CellBudget::steps(10_000),
            ..config(&opts)
        };
        assert!(budgeted
            .canonical()
            .contains("\nbudget_steps=10000\nbudget_wall_ms=none\n"));
        assert_eq!(fingerprint(&budgeted), "25f3bde0d864acebf378eb71c508cc12");
    }

    #[test]
    fn every_config_field_perturbs_the_fingerprint() {
        let opts = base_opts();
        let base = fingerprint(&config(&opts));

        let mut threads = base_opts();
        threads.threads = 8;
        let mut scale = base_opts();
        scale.scale = 0.400_000_000_000_000_1;
        let mut fixed = base_opts();
        fixed.fixed = true;
        let mut layout = base_opts();
        layout.layout_perturbation = 8;
        let mut placement = base_opts();
        placement.placement = ThreadPlacement::RoundRobin;

        let mut variants: Vec<(&str, String)> = vec![
            (
                "threads",
                fingerprint(&CellConfig {
                    opts: &threads,
                    ..config(&threads)
                }),
            ),
            (
                "scale",
                fingerprint(&CellConfig {
                    opts: &scale,
                    ..config(&scale)
                }),
            ),
            (
                "fixed",
                fingerprint(&CellConfig {
                    opts: &fixed,
                    ..config(&fixed)
                }),
            ),
            (
                "layout",
                fingerprint(&CellConfig {
                    opts: &layout,
                    ..config(&layout)
                }),
            ),
            (
                "placement",
                fingerprint(&CellConfig {
                    opts: &placement,
                    ..config(&placement)
                }),
            ),
        ];
        let opts = base_opts();
        variants.extend([
            (
                "workload",
                fingerprint(&CellConfig {
                    workload: "histogram",
                    ..config(&opts)
                }),
            ),
            (
                "tool",
                fingerprint(&CellConfig {
                    tool: "laser",
                    ..config(&opts)
                }),
            ),
            (
                "topology",
                fingerprint(&CellConfig {
                    topology: TopologySpec::OctoSocket,
                    ..config(&opts)
                }),
            ),
            (
                "budget_steps",
                fingerprint(&CellConfig {
                    budget: CellBudget::steps(1_000_000),
                    ..config(&opts)
                }),
            ),
            (
                "pipeline",
                fingerprint(&CellConfig {
                    pipeline: PipelineConfig::pipelined(),
                    ..config(&opts)
                }),
            ),
        ]);
        let custom = CustomTopology::from_json(
            r#"{"name": "fat-thin", "core_blocks": [6, 2],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
        )
        .unwrap();
        variants.push((
            "custom_topology",
            fingerprint(&CellConfig {
                custom_topology: Some(&custom),
                ..config(&opts)
            }),
        ));

        for (field, fp) in &variants {
            assert_ne!(fp, &base, "perturbing {field} must change the fingerprint");
        }
        // And the perturbations are pairwise distinct from each other too.
        let mut all: Vec<&String> = variants.iter().map(|(_, fp)| fp).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), variants.len());
    }

    #[test]
    fn store_and_load_round_trips_through_a_fresh_handle() {
        let dir = scratch_dir("roundtrip");
        let opts = base_opts();
        let cfg = config(&opts);
        let cell = sample_cell(Ok(sample_run()));

        let writer = CellCache::open(&dir).unwrap();
        assert_eq!(writer.load(&cfg), None, "cold store misses");
        writer.store(&cfg, &cell);
        assert_eq!(writer.write_error(), None);
        assert_eq!(
            writer.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                invalidated: 0,
                stored: 1
            }
        );

        // A different process would open its own handle: same directory,
        // fresh stats — and the loaded cell is exactly what was stored,
        // including the float report rates.
        let reader = CellCache::open(&dir).unwrap();
        assert_eq!(reader.load(&cfg), Some(cell));
        assert_eq!(reader.stats().hits, 1);
        assert_eq!(reader.stats().simulated(), 0);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_figure_3_cell_round_trips_with_its_counts() {
        let dir = scratch_dir("fig3");
        let opts = base_opts();
        let spec = laser_workloads::characterization_cases()[7].spec();
        let cfg = CellConfig::flat(spec.name, "pebs-accuracy", &opts);
        let run = crate::tool::ToolSpec::PebsAccuracy
            .run(&spec, &cfg)
            .unwrap();
        let counts = run.pebs_accuracy.expect("the tool counts");
        assert!(counts.addr_correct > 0 && counts.pc_adjacent >= counts.pc_exact);
        let cell = CellResult {
            workload: spec.name.to_string(),
            tool: cfg.cell_key(),
            outcome: Ok(run),
        };

        let writer = CellCache::open(&dir).unwrap();
        writer.store(&cfg, &cell);
        let text = fs::read_to_string(dir.join(format!("{}.json", fingerprint(&cfg)))).unwrap();
        let stored = format!(
            "\"pebs_accuracy\":{{\"addr_correct\":{},\"pc_exact\":{},\"pc_adjacent\":{}}}",
            counts.addr_correct, counts.pc_exact, counts.pc_adjacent
        );
        assert!(text.contains(&stored), "{text}");
        let reader = CellCache::open(&dir).unwrap();
        assert_eq!(reader.load(&cfg), Some(cell));
        assert_eq!(reader.stats().hits, 1);
        assert!(assert_decoders_agree(&text, &cfg, "figure 3 entry").is_ok());

        // A run without counts writes no key for them: every entry stored
        // before Figure 3 joined the grid keeps its bytes.
        assert!(!encode_run(&sample_run()).render().contains("pebs_accuracy"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_failures_round_trip_too() {
        let dir = scratch_dir("failures");
        let opts = base_opts();
        let cfg = config(&opts);
        for failure in [
            ToolFailure::Unsupported(SheriffFailure::Crash),
            ToolFailure::Unsupported(SheriffFailure::Incompatible),
            ToolFailure::BudgetExceeded {
                reason: StopReason::StepBudget {
                    limit: 1_000,
                    used: 1_001,
                },
            },
        ] {
            let cache = CellCache::open(&dir).unwrap();
            let cell = sample_cell(Err(failure.clone()));
            cache.store(&cfg, &cell);
            assert_eq!(cache.load(&cfg), Some(cell), "{failure:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn salt_bump_invalidates_every_stored_cell() {
        let dir = scratch_dir("salt");
        let opts = base_opts();
        let cfg = config(&opts);
        let cell = sample_cell(Ok(sample_run()));

        let old = CellCache::open(&dir).unwrap();
        old.store(&cfg, &cell);
        assert_eq!(old.load(&cfg), Some(cell.clone()));

        // The same store under a bumped salt: the entry is stale, counted as
        // invalidated (not a plain miss), and re-storing repairs it.
        let new = CellCache::open(&dir).unwrap().with_salt(CACHE_SALT + 1);
        assert_eq!(new.load(&cfg), None);
        assert_eq!(new.stats().invalidated, 1);
        assert_eq!(new.stats().misses, 0);
        new.store(&cfg, &cell);
        assert_eq!(new.load(&cfg), Some(cell.clone()));

        // And the old-salt handle now sees a stale entry in turn.
        let old = CellCache::open(&dir).unwrap();
        assert_eq!(old.load(&cfg), None);
        assert_eq!(old.stats().invalidated, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterministic_configs_and_outcomes_are_never_cached() {
        let dir = scratch_dir("nondet");
        let cache = CellCache::open(&dir).unwrap();
        let opts = base_opts();

        // Every config is cacheable, but transient outcomes (errors and
        // panics) are never stored.
        let cfg = config(&opts);
        for failure in [
            ToolFailure::Error("io".to_string()),
            ToolFailure::Panicked {
                message: "boom".to_string(),
            },
        ] {
            cache.store(&cfg, &sample_cell(Err(failure)));
        }
        assert_eq!(cache.stats().stored, 0);
        assert_eq!(cache.load(&cfg), None, "nothing was written");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_degrade_to_misses() {
        let dir = scratch_dir("corrupt");
        let opts = base_opts();
        let cfg = config(&opts);
        let cache = CellCache::open(&dir).unwrap();

        // Corrupt JSON at the right path: a miss, never an error.
        let path = dir.join(format!("{}.json", fingerprint(&cfg)));
        fs::write(&path, b"{\"kind\": \"laser-cell\", \"salt\":").unwrap();
        assert_eq!(cache.load(&cfg), None);
        assert_eq!(cache.stats().misses, 1);

        // A fingerprint collision (simulated by copying another config's
        // entry into this config's slot) is caught by the stored canonical
        // config string: again a miss, never a wrong result.
        let other_opts = BuildOptions {
            threads: 16,
            ..base_opts()
        };
        let other = CellConfig {
            opts: &other_opts,
            ..config(&other_opts)
        };
        cache.store(&other, &sample_cell(Ok(sample_run())));
        fs::copy(dir.join(format!("{}.json", fingerprint(&other))), &path).unwrap();
        assert_eq!(cache.load(&cfg), None);
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.load(&other).is_some(), "the real entry still hits");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failures_are_recorded_not_panicked() {
        let dir = scratch_dir("failwrite");
        let cache = CellCache::open(&dir).unwrap();
        // Remove the directory out from under the cache: the tmp-file write
        // fails, the error lands in the slot, and nothing panics.
        fs::remove_dir_all(&dir).unwrap();
        let opts = base_opts();
        cache.store(&config(&opts), &sample_cell(Ok(sample_run())));
        let error = cache.write_error().expect("the failed write is recorded");
        assert!(error.contains("cache write"), "{error}");
        assert_eq!(cache.stats().stored, 0);
    }

    #[test]
    fn canonical_rendering_is_line_per_field() {
        let opts = base_opts();
        let canonical = config(&opts).canonical();
        for key in [
            "workload=histogram'",
            "tool=laser-detect",
            "topology=flat",
            "threads=4",
            "scale=1.0",
            "fixed=false",
            "layout_perturbation=0",
            "placement=packed",
            "budget_steps=none",
            "budget_wall_ms=none",
            "pipeline=false",
            "pipeline_capacity=2",
            "pipeline_lossy=false",
            "pipeline_shards=1",
            "pipeline_routing=line",
            "pipeline_driver_lag=0",
        ] {
            assert!(
                canonical.lines().any(|l| l == key),
                "canonical rendering misses {key:?}:\n{canonical}"
            );
        }

        // A custom layout's full rendering takes the preset key's slot.
        let custom = CustomTopology::from_json(
            r#"{"name": "fat-thin", "core_blocks": [6, 2],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
        )
        .unwrap();
        let canonical = CellConfig {
            custom_topology: Some(&custom),
            ..config(&opts)
        }
        .canonical();
        assert!(
            canonical.lines().any(|l| l
                == "topology=custom:fat-thin;blocks=6,2;remote_hitm=220;remote_llc=100;\
                    remote_dram=310"),
            "custom layout missing from canonical:\n{canonical}"
        );
    }

    /// Both decoders on `text`, under the current salt and a bumped one:
    /// the same hit, miss or stale salt. Returns the current-salt outcome.
    pub(super) fn assert_decoders_agree(
        text: &str,
        config: &CellConfig,
        what: &str,
    ) -> Result<CellResult, EntryRejected> {
        let canonical = config.canonical();
        let agreed = |salt| {
            let read = decode_entry(text, salt, &canonical, config);
            let tree = reference::decode_entry(text, salt, &canonical, config);
            assert_eq!(read, tree, "{what} (salt {salt}): {text}");
            read
        };
        let _ = agreed(CACHE_SALT + 1);
        agreed(CACHE_SALT)
    }

    /// `f` on every object of `value`, outermost first.
    fn each_object(value: &mut Value, f: &mut impl FnMut(&mut Vec<(String, Value)>)) {
        match value {
            Value::Object(pairs) => {
                f(pairs);
                for (_, child) in pairs {
                    each_object(child, f);
                }
            }
            Value::Array(items) => items.iter_mut().for_each(|item| each_object(item, f)),
            _ => {}
        }
    }

    /// The key/value pairs of every object of `value`, outermost first.
    fn objects_of(value: &Value) -> Vec<Vec<(String, Value)>> {
        let mut objects = Vec::new();
        each_object(&mut value.clone(), &mut |pairs| objects.push(pairs.clone()));
        objects
    }

    /// `value` rendered with `edit` applied to its `target`-th object
    /// (outermost first).
    fn edited(
        value: &Value,
        target: usize,
        edit: impl FnOnce(&mut Vec<(String, Value)>),
    ) -> String {
        let (mut doc, mut n, mut edit) = (value.clone(), 0, Some(edit));
        each_object(&mut doc, &mut |pairs| {
            if n == target {
                if let Some(edit) = edit.take() {
                    edit(pairs);
                }
            }
            n += 1;
        });
        doc.render()
    }

    /// `text` with whitespace between every two tokens.
    fn spaced(text: &str) -> String {
        let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
        for c in text.chars() {
            let structural = !in_string && "{}[],:".contains(c);
            if structural {
                out.push_str(" \n\t");
            }
            out.push(c);
            if structural {
                out.push_str("\r ");
            }
            match c {
                _ if escaped => escaped = false,
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                _ => {}
            }
        }
        out
    }

    #[test]
    fn the_reader_decoder_agrees_with_the_tree_decoder_on_hand_cases() {
        let opts = base_opts();
        let cfg = config(&opts);
        let crash = ToolFailure::Unsupported(SheriffFailure::Crash);
        let budget = ToolFailure::BudgetExceeded {
            reason: StopReason::StepBudget {
                limit: 1_000,
                used: 1_001,
            },
        };
        let outcomes = [
            Ok(sample_run()),
            Ok(accuracy_run()),
            Err(crash.clone()),
            Err(ToolFailure::Unsupported(SheriffFailure::Incompatible)),
            Err(budget.clone()),
        ];
        for outcome in outcomes {
            let cell = sample_cell(outcome);
            let entry = encode_entry(CACHE_SALT, &cfg, &cell);
            let text = entry.render();
            let agree = |text: &str, what: &str| assert_decoders_agree(text, &cfg, what);
            let hit = |text: &str, what: &str| assert_eq!(agree(text, what), Ok(cell.clone()));
            hit(&text, "as written");

            // Keys in reverse order in every object.
            let mut reversed = entry.clone();
            each_object(&mut reversed, &mut |pairs| pairs.reverse());
            hit(&reversed.render(), "reordered keys");

            // `\u000a` for every `\n` (only the stored config has any).
            assert!(text.contains("\\n"));
            hit(&text.replace("\\n", "\\u000a"), "\\u000a for \\n");

            // Whitespace between every two tokens.
            hit(&spaced(&text), "spaced");

            // Anything after the entry.
            for tail in [" 0", "}", ",", " {}", &text] {
                let text = format!("{text}{tail}");
                assert_eq!(agree(&text, "trailing"), Err(EntryRejected::Unusable));
            }

            let objects = objects_of(&entry);
            let known: Vec<&(String, Value)> = objects.iter().flatten().collect();
            for (target, pairs) in objects.iter().enumerate() {
                for at in [0, pairs.len()] {
                    // An unknown key holding a nested value is skipped.
                    let extra = Value::object().set(
                        "reported",
                        Value::Array(vec![Value::Null, Value::object().set("kind", "x")]),
                    );
                    let doc = edited(&entry, target, |pairs| {
                        pairs.insert(at, ("unknown".to_string(), extra));
                    });
                    assert!(doc.len() > text.len(), "the edit landed");
                    hit(&doc, "unknown key");

                    // A key another object holds, with its value there.
                    for (key, value) in &known {
                        if pairs.iter().all(|(k, _)| k != key) {
                            let doc = edited(&entry, target, |pairs| {
                                pairs.insert(at, (key.clone(), value.clone()));
                            });
                            let _ = agree(&doc, &format!("misplaced {key:?}"));
                        }
                    }
                }

                // A duplicate of every key, before and after the original:
                // after, the original decides (a hit); before, the twin does.
                for key in 0..pairs.len() {
                    for twin in [Value::Null, Value::Int(7), Value::from("laser-cell")] {
                        for before in [true, false] {
                            let doc = edited(&entry, target, |pairs| {
                                let twin = (pairs[key].0.clone(), twin.clone());
                                pairs.insert(if before { key } else { key + 1 }, twin);
                            });
                            if before {
                                let _ = agree(&doc, "duplicate key before");
                            } else {
                                hit(&doc, "duplicate key after");
                            }
                        }
                    }
                }
            }

            // Every pairing of a run and a failure in the cell: null, a valid
            // one of either kind, or the wrong type.
            let runs = [
                Value::Null,
                encode_run(&sample_run()),
                encode_run(&accuracy_run()),
                Value::Int(1),
            ];
            let failures = [
                Value::Null,
                encode_failure(&crash),
                encode_failure(&budget),
                Value::object()
                    .set("step_budget", Value::Null)
                    .set("unsupported", "crash"),
                Value::Int(1),
            ];
            let cell_object = objects.iter().position(|pairs| pairs[0].0 == "workload");
            for run in &runs {
                for failure in &failures {
                    let doc = edited(&entry, cell_object.unwrap(), |pairs| {
                        pairs[2].1 = run.clone();
                        pairs[3].1 = failure.clone();
                    });
                    let _ = agree(&doc, "run and failure");
                }
            }
        }
    }
}
