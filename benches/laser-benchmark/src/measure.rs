//! Run one workload: set-up, warm-up, timed passes, correctness checks, and —
//! on request — the traced passes and isolated loops behind the per-layer
//! metrics.
//!
//! Load shape: a batch system in a closed loop with one client. Passes run
//! back to back from one driver thread; each is timed cell by cell, with a
//! host-speed reading between cells (`host::Clock`). The warm-up pass is
//! discarded (it fills the allocator and the page cache) and fixes the
//! reference digest every later pass must reproduce.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use laser_core::PipelineConfig;
use laser_machine::{MachineConfig, WorkloadImage};
use laser_workloads::{registry, BuildOptions};

use crate::campaign::{self, CellSpan};
use crate::host::{self, Clock, Timed};
use crate::isolated;
use crate::metrics::{SimTotals, END_TO_END, PER_LAYER};
use crate::session::{self, CellOutcome, Recording, TraceSide};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    Kind, SessionDef, Workload, CAMPAIGN_SCALE, CAMPAIGN_THREADS, QUICK_DIVISOR, WARM_RERUNS,
};

/// An untraced run sets up at least `MIN_SETUPS` times, and goes on, up to
/// `MAX_SETUPS`, until `SETUP_SECONDS` have gone by: a quarter-second set-up
/// needs more repeats than a one-second one for as steady a median.
/// `setup_s` is the median. A set-up is one slice of the clock, so a single
/// one reads within ±10 % (measured); with three, ten runs' medians spread
/// over 9–11 %, which five bring under a third of the bound. A traced run
/// does not report `setup_s` to the driver and sets up once.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 12;
const SETUP_SECONDS: f64 = 3.0;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// The same for a traced run, whose every timed pass has a traced pass (and,
/// pipelined, an inline pass) next to it.
const MIN_TRACED_PASSES: usize = 2;
/// Slices a `campaign_warm` pass is timed in.
const WARM_SLICES: usize = 10;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Run a traced pass next to every timed pass, then the isolated loops,
    /// and report the per-layer metrics.
    pub trace: bool,
    /// One pass, every scale divided by ten: all checks, in a few seconds.
    pub quick: bool,
    /// Campaign pool size, when given explicitly.
    pub threads: Option<usize>,
    /// Where to write the spans of the traced passes.
    pub spans: Option<PathBuf>,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    /// `available_parallelism` of the host.
    pub parallelism: usize,
    /// Threads the workload keeps busy.
    pub threads: usize,
    /// True when `parallelism < threads`: the number is then a time-sharing
    /// artefact, not a parallel measurement.
    pub time_sharing: bool,
    /// The host's speed during the timed passes relative to the reference
    /// host; host-time metrics are reported at reference speed, so a raw
    /// time is the reported one divided by this.
    pub host_speed: f64,
    pub passes: usize,
    /// One op is one cell: a session run or a campaign cell.
    pub ops: u64,
    pub failed_ops: u64,
    pub correct: bool,
    /// Why `correct` is false or operations failed.
    pub problems: Vec<String>,
    /// The samples behind each end-to-end metric, in `END_TO_END` order.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// Per-layer metrics in `PER_LAYER` order; empty unless traced.
    pub per_layer: Vec<(String, f64)>,
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory beside the running executable — inside the build
    /// output, which every checkout already ignores.
    fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no directory")?
            .join("laser-benchmark-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The numbers a run accumulates before they are laid out as a result.
struct Tally {
    /// Times every set-up and timed pass.
    clock: Clock,
    setup_s: Vec<Timed>,
    /// The timed passes.
    passes: Vec<Timed>,
    /// Cells one pass delivers, and how many times over it delivers `sim`
    /// (the warm reruns; otherwise 1).
    cells_per_pass: f64,
    reruns: f64,
    sim: SimTotals,
    peak_rss_mb: f64,
    ops: u64,
    failed_ops: u64,
    problems: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn new(clock: Clock) -> Tally {
        Tally {
            clock,
            setup_s: Vec::new(),
            passes: Vec::new(),
            cells_per_pass: 0.0,
            reruns: 1.0,
            sim: SimTotals::default(),
            peak_rss_mb: 0.0,
            ops: 0,
            failed_ops: 0,
            problems: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Median wall seconds of the timed passes.
    fn wall_median(&self) -> f64 {
        median(&self.passes.iter().map(|t| t.wall_s).collect::<Vec<f64>>())
    }

    /// What the wall clock read while the CPU clock measured.
    fn set_host_metrics(&mut self) {
        let wall: f64 = self.passes.iter().map(|t| t.wall_s).sum();
        let cpu: f64 = self.passes.iter().map(|t| t.cpu_s).sum();
        self.set("host.wall_s", self.wall_median());
        self.set("host.cpu_over_wall", cpu / wall);
        self.set("host.speed", self.clock.host_speed());
    }

    /// Set the workload up repeatedly, timing each, and keep the last.
    /// `prepare` is given the number of set-ups made before it.
    fn set_up<P>(
        &mut self,
        opts: &Options,
        mut prepare: impl FnMut(usize) -> Result<P, String>,
    ) -> Result<P, String> {
        let started = Instant::now();
        loop {
            let made = self.setup_s.len();
            let prepared = self.clock.slice(|| prepare(made))?;
            self.setup_s.push(self.clock.take());
            let made = made + 1;
            let enough = opts.trace
                || opts.quick
                || made >= MAX_SETUPS
                || (made >= MIN_SETUPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS);
            if enough {
                return Ok(prepared);
            }
        }
    }

    fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.problems.len() < 20 {
            eprintln!("  problem: {what}");
            self.problems.push(what);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|p| p.name == name),
            "{name} is not in the metric dictionary"
        );
        self.layers.insert(name, value);
    }

    /// The counts behind `bug_recall` and `report_precision`.
    fn set_accuracy_counts(&mut self) {
        self.set("laser.known_bugs", self.sim.known_bugs as f64);
        self.set("laser.bugs_found", self.sim.bugs_found as f64);
        self.set("laser.sites_reported", self.sim.sites_reported as f64);
        self.set("laser.false_positives", self.sim.false_positives as f64);
    }

    fn samples_of(&self, metric: &str) -> Vec<f64> {
        // CPU seconds at reference host speed (see `host::Clock` on why).
        let at_reference = |t: &Timed| t.reference_s;
        let pass: Vec<f64> = self.passes.iter().map(at_reference).collect();
        let per_second = |amount: f64| pass.iter().map(|s| amount / s).collect();
        // Smoothed by one so a workload with no known bug (or no reported
        // site) reads 1, not 0/0; see the README on why these are shares.
        let sim = &self.sim;
        let true_sites = sim.sites_reported - sim.false_positives;
        match metric {
            "setup_s" => self.setup_s.iter().map(at_reference).collect(),
            "cpu_s" => pass.clone(),
            "sim_cycles_per_s" => per_second(sim.cycles as f64 * self.reruns),
            "cells_per_s" => per_second(self.cells_per_pass),
            "peak_rss_mb" => vec![self.peak_rss_mb],
            "sim_overhead" => vec![sim.sim_overhead],
            "bug_recall" => vec![(sim.bugs_found + 1) as f64 / (sim.known_bugs + 1) as f64],
            "report_precision" => vec![(true_sites + 1) as f64 / (sim.sites_reported + 1) as f64],
            other => unreachable!("no samples for end-to-end metric {other}"),
        }
    }
}

/// Whether the timed passes go on: until `seconds` have been measured and the
/// minimum number of passes made. `--quick` makes exactly one.
fn keep_timing(opts: &Options, started: Instant, passes: usize) -> bool {
    if opts.quick {
        return passes < 1;
    }
    let min_passes = if opts.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    passes < min_passes || started.elapsed().as_secs_f64() < opts.seconds
}

/// The tracing overhead: the median over the (timed pass, traced pass) pairs
/// of traced over untraced CPU time at reference host speed, minus 1. Reading
/// the clock is CPU work, and CPU time is what this host lets one measure;
/// each traced pass runs right after its untraced partner.
fn overhead_frac(tally: &Tally, traced: &[Timed]) -> f64 {
    let ratios: Vec<f64> = tally
        .passes
        .iter()
        .zip(traced)
        .map(|(untraced, traced)| traced.reference_s / untraced.reference_s)
        .collect();
    median(&ratios) - 1.0
}

pub fn run_workload(workload: &Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let parallelism = host::parallelism();
    let divisor = if opts.quick { QUICK_DIVISOR } else { 1.0 };
    let threads = match workload.kind {
        Kind::Session(_) => workload.threads,
        // Never more pool threads than the host has, unless asked to.
        Kind::CampaignCold | Kind::CampaignWarm => opts
            .threads
            .unwrap_or_else(|| CAMPAIGN_THREADS.min(parallelism)),
    };
    let mut tally = Tally::new(Clock::new(threads)?);
    match workload.kind {
        Kind::Session(def) => run_session(&def, opts, divisor, &mut tally)?,
        Kind::CampaignCold => run_campaign(false, threads, opts, divisor, &mut tally)?,
        Kind::CampaignWarm => run_campaign(true, threads, opts, divisor, &mut tally)?,
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|e| (e.name.to_string(), tally.samples_of(e.name)))
        .collect();
    let per_layer = if opts.trace {
        PER_LAYER
            .iter()
            .map(|p| {
                let value = tally.layers.get(p.name).copied().unwrap_or(0.0);
                (p.name.to_string(), value)
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(WorkloadResult {
        workload: workload.name.to_string(),
        seed: opts.seed,
        quick: opts.quick,
        parallelism,
        threads,
        time_sharing: parallelism < threads,
        host_speed: tally.clock.host_speed(),
        passes: tally.passes.len(),
        ops: tally.ops,
        failed_ops: tally.failed_ops,
        correct: tally.problems.is_empty(),
        problems: tally.problems,
        end_to_end,
        per_layer,
    })
}

fn write_spans(opts: &Options, tracer: &Tracer) -> Result<(), String> {
    match &opts.spans {
        Some(path) => std::fs::write(path, tracer.to_json().render())
            .map_err(|e| format!("write {}: {e}", path.display())),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------- sessions

fn run_session(
    def: &SessionDef,
    opts: &Options,
    divisor: f64,
    tally: &mut Tally,
) -> Result<(), String> {
    let p = tally.set_up(opts, |_| session::prepare(def, opts.seed, divisor))?;
    let pipeline = p.pipeline();

    // Warm-up pass: discarded, and the reference every pass must reproduce.
    let warm_outcomes = p.run_pass(pipeline);
    let reference = session::summarise(&p, &warm_outcomes);
    for why in &reference.failures {
        tally.problem(format!("warm-up: {why}"));
    }
    tally.cells_per_pass = p.cells.len() as f64;
    tally.sim = reference.sim;

    let mut traced = opts.trace.then(|| TracedSession {
        tracer: Tracer::new(true),
        side: TraceSide::default(),
        passes: Vec::new(),
        inline_walls: Vec::new(),
        last: Vec::new(),
    });
    let started = Instant::now();
    while keep_timing(opts, started, tally.passes.len()) {
        if let Some(t) = traced.as_mut().filter(|_| def.piped) {
            // The base of `core.pipeline.piped_over_inline`: an inline pass
            // over the same images next to each pipelined one.
            let inline = p.timed_pass(PipelineConfig::default(), &mut tally.clock);
            t.inline_walls.push(tally.clock.take().wall_s);
            check_pass(&reference.cell_digests, &inline, "inline pass", tally);
        }

        let outcomes = p.timed_pass(pipeline, &mut tally.clock);
        tally.passes.push(tally.clock.take());
        tally.ops += outcomes.len() as u64;
        tally.failed_ops += check_pass(&reference.cell_digests, &outcomes, "timed pass", tally);

        if let Some(t) = traced.as_mut() {
            t.tracer.set_pass(t.passes.len() as u32);
            let outcomes = tally.clock.slice(|| {
                let id = t.tracer.begin("pass");
                let outcomes = p.traced_pass(&mut t.tracer, &mut t.side);
                t.tracer.end(id);
                outcomes
            });
            t.passes.push(tally.clock.take());
            // For a replayable workload this is the layered-replay check: the
            // loop rebuilt from public functions reproduces the session's
            // digest.
            check_pass(&reference.cell_digests, &outcomes, "traced pass", tally);
            t.last = outcomes;
        }
    }
    tally.peak_rss_mb = host::peak_rss_mib().unwrap_or(0.0);

    if def.piped {
        // Lag-0 identity: the pipelined digest equals the inline digest of
        // the same images and configuration.
        let inline = p.run_pass(PipelineConfig::default());
        check_pass(&reference.cell_digests, &inline, "inline pass", tally);
    }

    if let Some(t) = traced {
        write_spans(opts, &t.tracer)?;
        session_layers(&p, opts, &reference, &warm_outcomes, &t, tally)?;
    }
    Ok(())
}

/// What the traced passes of a session workload leave behind.
struct TracedSession {
    tracer: Tracer,
    side: TraceSide,
    /// The traced passes; pass `i` ran right after timed pass `i`.
    passes: Vec<Timed>,
    /// Wall seconds of the inline pass run before each pipelined timed pass.
    inline_walls: Vec<f64>,
    /// The outcomes of the last traced pass.
    last: Vec<CellOutcome>,
}

fn cell_digests(outcomes: &[CellOutcome]) -> Vec<u64> {
    outcomes
        .iter()
        .map(|o| o.as_ref().map_or(0, crate::digest::of_outcome))
        .collect()
}

/// Digest a pass, check it against the reference digests and return how many
/// of its operations failed; an op fails on an error or a digest mismatch.
fn check_pass(reference: &[u64], outcomes: &[CellOutcome], what: &str, tally: &mut Tally) -> u64 {
    let digests = cell_digests(outcomes);
    let mut failed = 0;
    for ((digest, expected), outcome) in digests.iter().zip(reference).zip(outcomes) {
        match outcome {
            Err(why) => {
                failed += 1;
                tally.problem(format!("{what}: {why}"));
            }
            Ok(o) if digest != expected => {
                failed += 1;
                tally.problem(format!("{what}: digest of {} changed", o.report.workload));
            }
            Ok(_) => {}
        }
    }
    failed
}

/// The per-layer metrics of a session workload, from its traced passes and
/// the isolated loops.
fn session_layers(
    p: &session::Prepared,
    opts: &Options,
    reference: &session::PassSummary,
    warm_outcomes: &[CellOutcome],
    traced: &TracedSession,
    tally: &mut Tally,
) -> Result<(), String> {
    let def = &p.def;
    let TracedSession {
        tracer,
        side,
        passes: traced_passes,
        inline_walls,
        last,
    } = traced;
    let n = traced_passes.len() as f64;
    let totals = tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    let traced_ns = total_ns("pass");
    let wall_median = tally.wall_median();
    let ok: Vec<_> = last.iter().filter_map(|o| o.as_ref().ok()).collect();
    let steps = reference.steps as f64;

    tally.set("trace.overhead_frac", overhead_frac(tally, traced_passes));
    tally.set("machine.steps_per_s", steps / wall_median);
    tally.set("machine.quanta", side.quanta as f64 / n);
    tally.set(
        "workloads.build_us_per_image",
        p.build_us.iter().sum::<f64>() / p.build_us.len() as f64,
    );
    tally.set(
        "machine.native_step_ns",
        p.native_ns / p.native_steps as f64,
    );

    // Exact counters, summed over the cells of one pass.
    let sum =
        |f: &dyn Fn(&laser_core::LaserOutcome) -> u64| ok.iter().map(|o| f(o)).sum::<u64>() as f64;
    let hitm = sum(&|o| o.run.stats.hitm_events);
    let events = sum(&|o| o.driver_stats.events_observed);
    let sampled = sum(&|o| o.driver_stats.records_sampled);
    let records = sum(&|o| o.report.total_records);
    tally.set("machine.steps", steps);
    tally.set("machine.sim_cycles", reference.sim.cycles as f64);
    tally.set("machine.hitm_events", hitm);
    tally.set("machine.hitm_per_kstep", hitm / (steps / 1e3));
    tally.set("machine.hitm_remote", sum(&|o| o.run.stats.hitm_remote));
    tally.set("machine.l1_hits", sum(&|o| o.run.stats.l1_hits));
    tally.set("machine.llc_hits", sum(&|o| o.run.stats.llc_hits));
    tally.set("machine.dram_accesses", sum(&|o| o.run.stats.dram_accesses));
    tally.set(
        "machine.hook_handled_ops",
        sum(&|o| o.run.stats.hook_handled_ops),
    );
    tally.set("machine.htm_commits", sum(&|o| o.run.stats.htm_commits));
    tally.set(
        "machine.htm_capacity_aborts",
        sum(&|o| o.run.stats.htm_capacity_aborts),
    );
    tally.set(
        "machine.injected_overhead_cycles",
        sum(&|o| o.run.stats.injected_overhead_cycles),
    );
    tally.set("pebs.driver.events_observed", events);
    tally.set("pebs.driver.records_sampled", sampled);
    tally.set(
        "pebs.driver.events_dropped",
        sum(&|o| o.driver_stats.events_dropped),
    );
    tally.set(
        "pebs.driver.interrupts",
        sum(&|o| o.driver_stats.interrupts),
    );
    tally.set(
        "pebs.driver.overhead_cycles",
        sum(&|o| o.driver_stats.overhead_cycles),
    );
    tally.set(
        "pebs.sample_ratio",
        if events > 0.0 { sampled / events } else { 0.0 },
    );
    tally.set("core.detector.records", records);
    tally.set("core.detector.cycles", sum(&|o| o.detector_cycles));
    tally.set_accuracy_counts();
    tally.set_host_metrics();

    let images: Vec<&WorkloadImage> = p.cells.iter().map(|c| &c.image).collect();
    tally.set(
        "isa.decode_ns_per_inst",
        isolated::decode_ns_per_inst(&images),
    );
    tally.set(
        "machine.new_us",
        isolated::machine_new_us(&p.machine, &images),
    );
    let (private, pingpong) = isolated::coherence_access_ns(opts.seed);
    tally.set("machine.coherence.access_ns.private", private);
    tally.set("machine.coherence.access_ns.pingpong", pingpong);

    if def.replayable() {
        let quantum_us: Vec<f64> = tracer
            .durations_ns("machine.run_quantum")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        tally.set("machine.quantum_us.p50", percentile(&quantum_us, 50.0));
        tally.set("machine.quantum_us.p99", percentile(&quantum_us, 99.0));
        tally.set(
            "machine.run_quantum.busy_frac",
            total_ns("machine.run_quantum") / traced_ns,
        );
        tally.set(
            "machine.step_ns",
            total_ns("machine.run_quantum") / (steps * n),
        );
        tally.set(
            "pebs.driver.ingest.busy_frac",
            total_ns("pebs.driver.ingest") / traced_ns,
        );
        tally.set(
            "core.detector.process.busy_frac",
            total_ns("core.detector.process") / traced_ns,
        );
        if events > 0.0 {
            tally.set(
                "pebs.driver.ingest_ns_per_event",
                total_ns("pebs.driver.ingest") / (events * n),
            );
        }
        if records > 0.0 {
            tally.set(
                "core.detector.process_ns_per_record",
                total_ns("core.detector.process") / (records * n),
            );
        }
        tally.set(
            "core.detector.report_us",
            total_ns("core.detector.report") / count("core.detector.report") / 1e3,
        );
        // Everything under a cell is a layer call; what the session's wall
        // (the timed pass next to each traced one) holds beyond them is its
        // own glue.
        let mut layer_ns = vec![0.0; tally.passes.len()];
        for span in tracer.spans() {
            if !matches!(span.name, "pass" | "cell") {
                layer_ns[span.pass as usize] += span.duration_ns() as f64;
            }
        }
        let layer_shares: Vec<f64> = layer_ns
            .iter()
            .zip(&tally.passes)
            .map(|(ns, untraced)| ns / 1e9 / untraced.wall_s)
            .collect();
        tally.set("core.session.glue_frac", 1.0 - median(&layer_shares));

        // Record the most contended cell's inputs, then replay them through
        // one function at a time.
        let hottest = warm_outcomes
            .iter()
            .enumerate()
            .max_by_key(|(_, o)| o.as_ref().map_or(0, |o| o.run.stats.hitm_events))
            .map_or(0, |(i, _)| i);
        let cell = &p.cells[hottest];
        let mut recording = Recording::default();
        p.replay_cell(
            cell,
            &mut Tracer::new(false),
            &mut TraceSide::default(),
            Some(&mut recording),
        )?;
        tally.set(
            "pebs.pmu.observe_ns_per_event",
            isolated::pmu_observe_ns(p, cell, &recording),
        );
        tally.set(
            "pebs.imprecision.distort_ns_per_event",
            isolated::distort_ns(p, cell, &recording),
        );
        tally.set(
            "core.detector.absorb_us",
            isolated::absorb_us(p, cell, &recording),
        );
    } else {
        let advance_us: Vec<f64> = tracer
            .durations_ns("session.advance")
            .iter()
            .chain(&tracer.durations_ns("session.advance.hooked"))
            .map(|ns| ns / 1e3)
            .collect();
        tally.set("machine.quantum_us.p50", percentile(&advance_us, 50.0));
        tally.set("machine.quantum_us.p99", percentile(&advance_us, 99.0));
    }

    if def.piped {
        // Busy times are summed over the cells of the last traced pass and
        // compared with that pass's wall.
        let pass_ns = traced_passes[traced_passes.len() - 1].wall_s * 1e9;
        let busy = |f: &dyn Fn(&laser_core::StageOccupancy) -> std::time::Duration| {
            ok.iter()
                .filter_map(|o| o.stage_occupancy.as_ref())
                .map(|s| f(s).as_secs_f64() * 1e9)
                .sum::<f64>()
                / pass_ns
        };
        tally.set("core.pipeline.machine_busy_frac", busy(&|s| s.machine_busy));
        tally.set("core.pipeline.driver_busy_frac", busy(&|s| s.driver_busy));
        tally.set(
            "core.pipeline.detector_busy_frac",
            busy(&|s| s.detector_busy),
        );
        let piped_build_us = total_ns("session.build") / count("session.build") / 1e3;
        tally.set(
            "core.pipeline.spawn_us",
            piped_build_us - isolated::inline_build_us(p),
        );
        let inline_over_piped: Vec<f64> = inline_walls
            .iter()
            .zip(&tally.passes)
            .map(|(inline, piped)| inline / piped.wall_s)
            .collect();
        tally.set(
            "core.pipeline.piped_over_inline",
            median(&inline_over_piped),
        );
        let (roundtrip, same_thread) = isolated::channel_ns();
        tally.set("pebs.channel.roundtrip_ns", roundtrip);
        tally.set("pebs.channel.send_recv_ns", same_thread);
    }

    if def.repair {
        let repairs: Vec<_> = ok.iter().filter_map(|o| o.repair.as_ref()).collect();
        let total = |f: &dyn Fn(&laser_core::RepairSummary) -> u64| {
            repairs.iter().map(|r| f(r)).sum::<u64>() as f64
        };
        tally.set("core.repair.attach_cycle", total(&|r| r.triggered_at_cycle));
        tally.set(
            "core.repair.buffered_stores",
            total(&|r| r.stats.buffered_stores),
        );
        tally.set("core.repair.flushes", total(&|r| r.stats.flushes));
        if side.hooked_steps > 0 {
            tally.set(
                "core.repair.hooked_step_ns",
                total_ns("session.advance.hooked") / side.hooked_steps as f64,
            );
        }
        if ok.len() == p.cells.len() {
            tally.set("isa.plan_analyze_us", isolated::plan_analyze_us(p, &ok));
        }
    }
    Ok(())
}

// --------------------------------------------------------------- campaigns

fn run_campaign(
    warm: bool,
    threads: usize,
    opts: &Options,
    divisor: f64,
    tally: &mut Tally,
) -> Result<(), String> {
    let scratch = Scratch::create()?;
    let scale = CAMPAIGN_SCALE / divisor;
    let reruns = if warm {
        ((WARM_RERUNS as f64 / divisor) as usize).max(1)
    } else {
        1
    };
    let p = tally.set_up(opts, |attempt| {
        campaign::prepare(warm, scale, threads, &scratch.0, attempt)
    })?;

    // Warm-up run: discarded, and the reference bytes every run must emit.
    let (first, _) = p.run_once(&mut Tracer::new(false));
    for why in &first.failures {
        tally.problem(format!("warm-up: {why}"));
    }
    let reference = &first.emitted;
    let sim = first.sim_summary();
    tally.cells_per_pass = (sim.cells * reruns) as f64;
    tally.reruns = reruns as f64;
    tally.sim = sim.sim;

    // A warm pass is timed in `WARM_SLICES` batches of reruns (see
    // `host::Clock`); a cold pass is one grid run and one slice.
    let slice_reruns = reruns.div_ceil(WARM_SLICES);
    let mut off = Tracer::new(false);
    let mut traced = opts.trace.then(|| TracedCampaign {
        tracer: Tracer::new(true),
        passes: Vec::new(),
        tail_idle: Vec::new(),
        cache: None,
    });
    let started = Instant::now();
    while keep_timing(opts, started, tally.passes.len()) {
        let mut failed = Vec::new();
        let mut left = reruns;
        while left > 0 {
            let batch = left.min(slice_reruns);
            left -= batch;
            tally.clock.slice(|| {
                for _ in 0..batch {
                    let (run, _) = p.run_once(&mut off);
                    if run.emitted != *reference {
                        failed.push("emitted bytes changed".to_string());
                    }
                    failed.extend(run.failures);
                }
            });
        }
        tally.passes.push(tally.clock.take());
        tally.ops += (sim.cells * reruns) as u64;
        tally.failed_ops += failed.len() as u64;
        for why in failed {
            tally.problem(format!("timed pass: {why}"));
        }

        if let Some(t) = traced.as_mut() {
            t.tracer.set_pass(t.passes.len() as u32);
            let mut problems = Vec::new();
            tally.clock.slice(|| {
                let id = t.tracer.begin("pass");
                for _ in 0..reruns {
                    let (run, spans) = p.run_once(&mut t.tracer);
                    if run.emitted != *reference || !run.failures.is_empty() {
                        problems.push(format!("traced pass: {:?}", run.failures));
                    }
                    let grid_run = t
                        .tracer
                        .spans()
                        .iter()
                        .rev()
                        .find(|s| s.name == "grid.run")
                        .expect("run_once records a grid.run span");
                    t.tail_idle
                        .push(tail_idle_frac(&spans, grid_run.start_ns, grid_run.end_ns));
                    t.cache = run.cache;
                }
                t.tracer.end(id);
            });
            t.passes.push(tally.clock.take());
            for why in problems {
                tally.problem(why);
            }
        }
    }
    tally.peak_rss_mb = host::peak_rss_mib().unwrap_or(0.0);

    if let Some(t) = traced {
        write_spans(opts, &t.tracer)?;
        campaign_layers(&p, opts, &first, &sim, &scratch.0, &t, tally)?;
    }
    Ok(())
}

/// What the traced passes of a campaign workload leave behind.
struct TracedCampaign {
    tracer: Tracer,
    /// The traced passes; pass `i` ran right after timed pass `i`.
    passes: Vec<Timed>,
    /// `tail_idle_frac` of every traced grid run.
    tail_idle: Vec<f64>,
    /// The cache counters of the last traced grid run.
    cache: Option<laser_bench::CacheStats>,
}

/// The per-layer metrics of a campaign workload, from its traced passes and
/// the isolated loops.
fn campaign_layers(
    p: &campaign::Prepared,
    opts: &Options,
    first: &campaign::GridRun,
    sim: &campaign::SimSummary,
    scratch: &Path,
    traced: &TracedCampaign,
    tally: &mut Tally,
) -> Result<(), String> {
    let reference = &first.emitted;
    let TracedCampaign {
        tracer,
        passes: traced_passes,
        tail_idle,
        cache: cache_stats,
    } = traced;
    let totals = tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e6)
    };
    let median_ms = |name: &str| {
        let d = tracer.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e6
        }
    };
    let cell_ns: f64 = [
        "cell.native",
        "cell.laser",
        "cell.vtune",
        "cell.sheriff",
        "cell.cached",
    ]
    .iter()
    .map(|name| total_ns(name))
    .sum();

    tally.set("trace.overhead_frac", overhead_frac(tally, traced_passes));
    tally.set("bench.grid.cells", sim.cells as f64);
    tally.set(
        "bench.pool.utilisation",
        cell_ns / (p.threads as f64 * total_ns("grid.run")),
    );
    tally.set("bench.pool.tail_idle_frac", median(tail_idle));
    tally.set("bench.grid.views_ms", mean_ms("grid.views"));
    tally.set("bench.emit.json_ms", mean_ms("emit.json"));
    tally.set("bench.emit.csv_ms", mean_ms("emit.csv"));
    tally.set("bench.emit.text_ms", mean_ms("emit.text"));
    tally.set("bench.emit.bytes", reference.bytes() as f64);
    tally.set_accuracy_counts();
    tally.set_host_metrics();
    if let Some(stats) = cache_stats {
        tally.set("bench.cache.hits", stats.hits as f64);
        tally.set("bench.cache.simulated", stats.simulated() as f64);
    }

    if p.cache_dir.is_some() {
        tally.set("bench.cache.load_us_per_cell", mean_ms("cell.cached") * 1e3);
        tally.set("bench.cache.bytes_per_cell", p.cache_bytes_per_cell());
        tally.set("bench.cache.populate_s", p.store_all_s(first, scratch)?);
    } else {
        // The machine ran: carry what `ToolRun` exposes of it. (It carries no
        // step count, so `machine.steps` stays with the session workloads.)
        tally.set("machine.sim_cycles", sim.sim.cycles as f64);
        tally.set("machine.hitm_events", sim.hitm_events as f64);
        tally.set("machine.hitm_remote", sim.hitm_remote as f64);
        tally.set("bench.cache.simulated", sim.cells as f64);
        tally.set("bench.grid.cell_ms.native", median_ms("cell.native"));
        tally.set("bench.grid.cell_ms.laser", median_ms("cell.laser"));
        tally.set("baselines.vtune.cell_ms", median_ms("cell.vtune"));
        tally.set("baselines.sheriff.cell_ms", median_ms("cell.sheriff"));
        tally.set(
            "workloads.build_us_per_image",
            p.build_us.iter().sum::<f64>() / p.build_us.len() as f64,
        );
        let opts_at_scale = BuildOptions::scaled(p.scale);
        let images: Vec<WorkloadImage> =
            registry().iter().map(|s| s.build(&opts_at_scale)).collect();
        let images: Vec<&WorkloadImage> = images.iter().collect();
        tally.set(
            "isa.decode_ns_per_inst",
            isolated::decode_ns_per_inst(&images),
        );
        tally.set(
            "machine.new_us",
            isolated::machine_new_us(&MachineConfig::default(), &images),
        );
        tally.set(
            "machine.native_step_ns",
            p.native_ns / p.native_steps as f64,
        );
        let (private, pingpong) = isolated::coherence_access_ns(opts.seed);
        tally.set("machine.coherence.access_ns.private", private);
        tally.set("machine.coherence.access_ns.pingpong", pingpong);
        let (first_cell, summary) = campaign::service_times_ms(
            p.threads,
            0.4 / if opts.quick { QUICK_DIVISOR } else { 1.0 },
        )?;
        tally.set("bench.service.first_cell_ms", first_cell);
        tally.set("bench.service.summary_ms", summary);
    }
    Ok(())
}

/// The share of a grid run's wall left after the first pool worker ran dry:
/// from then on the slowest remaining cell sets the time.
fn tail_idle_frac(spans: &[CellSpan], run_start: u64, run_end: u64) -> f64 {
    let mut last_end: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        let e = last_end.entry(s.worker).or_insert(0);
        *e = (*e).max(s.end_ns);
    }
    let first_dry = last_end.values().copied().min().unwrap_or(run_end);
    run_end.saturating_sub(first_dry) as f64 / (run_end - run_start).max(1) as f64
}
