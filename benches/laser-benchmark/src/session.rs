//! The five session workloads: set-up, passes, and the traced passes.
//!
//! A pass builds one session per program from prebuilt images, runs each to
//! completion and digests the outcome. The traced pass of an inline
//! detection-only workload is a *layered replay*: the inline quantum loop
//! rebuilt from the layers' public functions, with a span around each call,
//! whose digest must equal the session's. The other workloads (pipelined,
//! repair) cannot be replayed from outside — their loop owns threads or a
//! hook — so their traced pass puts spans around `build`, `advance` and
//! `finish` instead.

use std::time::Instant;

use laser_bench::runner::{build_under_tool, geomean, score_report};
use laser_core::{
    Detector, Laser, LaserConfig, LaserOutcome, PipelineConfig, SessionBuilder, SessionStatus,
};
use laser_machine::{
    CoreId, HitmEvent, Machine, MachineConfig, RunResult, RunStatus, WorkloadImage,
};
use laser_pebs::{Driver, HitmRecord, ImprecisionModel, Pmu, PmuConfig};
use laser_workloads::{BuildOptions, WorkloadSpec};

use crate::digest;
use crate::host::Clock;
use crate::metrics::SimTotals;
use crate::trace::Tracer;
use crate::workloads::SessionDef;

/// One program of a session workload, ready to run.
pub struct Cell {
    pub spec: WorkloadSpec,
    /// The image as laid out under a tool.
    pub image: WorkloadImage,
    /// The same program run with no tool attached: the base of `sim_overhead`.
    pub native: RunResult,
}

/// Everything a pass needs; building it is the workload's set-up.
pub struct Prepared {
    pub def: SessionDef,
    pub config: LaserConfig,
    pub machine: MachineConfig,
    pub cells: Vec<Cell>,
    /// Host microseconds of each `WorkloadSpec::build` call.
    pub build_us: Vec<f64>,
    /// Host nanoseconds and retired steps of the native reference runs.
    pub native_ns: f64,
    pub native_steps: u64,
}

/// One cell's result: the outcome, or why the operation failed.
pub type CellOutcome = Result<LaserOutcome, String>;

/// Set up a session workload: build every image (as run under a tool, and as
/// run natively), and run the native references.
pub fn prepare(def: &SessionDef, seed: u64, scale_divisor: f64) -> Result<Prepared, String> {
    // See `SessionDef::repair` on why a repair workload keeps the paper seed.
    let base = if def.repair {
        LaserConfig::default()
    } else {
        LaserConfig::detection_only().with_seed(seed)
    };
    let config = base.with_sav(def.sav).with_topology(def.topology);
    let machine = MachineConfig::for_topology(def.topology);
    let opts = BuildOptions::scaled(def.scale / scale_divisor).for_topology(def.topology);

    let mut cells = Vec::new();
    let mut build_us = Vec::new();
    let (mut native_ns, mut native_steps) = (0.0, 0);
    for &name in def.programs {
        let spec = laser_workloads::find(name).ok_or_else(|| format!("no workload '{name}'"))?;
        let mut timed_build = |under_tool: bool| {
            let start = Instant::now();
            let image = if under_tool {
                build_under_tool(&spec, &opts)
            } else {
                spec.build(&opts)
            };
            build_us.push(start.elapsed().as_secs_f64() * 1e6);
            image
        };
        let image = timed_build(true);
        let native_image = timed_build(false);
        let start = Instant::now();
        let native = Laser::run_native_on(&native_image, machine.clone())
            .map_err(|e| format!("native run of {name}: {e}"))?;
        native_ns += start.elapsed().as_secs_f64() * 1e9;
        native_steps += native.steps;
        cells.push(Cell {
            spec,
            image,
            native,
        });
    }
    Ok(Prepared {
        def: *def,
        config,
        machine,
        cells,
        build_us,
        native_ns,
        native_steps,
    })
}

impl Prepared {
    pub fn pipeline(&self) -> PipelineConfig {
        if self.def.piped {
            PipelineConfig::pipelined()
        } else {
            PipelineConfig::default()
        }
    }

    pub fn builder(&self, pipeline: PipelineConfig) -> SessionBuilder {
        Laser::builder()
            .config(self.config.clone())
            .machine(self.machine.clone())
            .pipeline_config(pipeline)
    }

    fn run_cell(&self, cell: &Cell, pipeline: PipelineConfig) -> CellOutcome {
        self.builder(pipeline)
            .build(&cell.image)
            .run()
            .map_err(|e| format!("{}: {e}", cell.spec.name))
    }

    /// One untraced pass: every cell through `LaserSession::run`.
    pub fn run_pass(&self, pipeline: PipelineConfig) -> Vec<CellOutcome> {
        self.cells
            .iter()
            .map(|cell| self.run_cell(cell, pipeline))
            .collect()
    }

    /// The same pass, each cell a slice of `clock`.
    pub fn timed_pass(&self, pipeline: PipelineConfig, clock: &mut Clock) -> Vec<CellOutcome> {
        self.cells
            .iter()
            .map(|cell| clock.slice(|| self.run_cell(cell, pipeline)))
            .collect()
    }

    /// One traced pass; see the module docs for which form it takes.
    pub fn traced_pass(&self, tracer: &mut Tracer, side: &mut TraceSide) -> Vec<CellOutcome> {
        self.cells
            .iter()
            .map(|cell| {
                let id = tracer.begin("cell");
                let out = if self.def.replayable() {
                    self.replay_cell(cell, tracer, side, None)
                } else {
                    self.advance_cell(cell, tracer, side)
                };
                tracer.end(id);
                out
            })
            .collect()
    }

    /// The layered replay of one cell: `LaserSession`'s inline detection-only
    /// loop, call for call, from the layers' public functions.
    pub fn replay_cell(
        &self,
        cell: &Cell,
        tracer: &mut Tracer,
        side: &mut TraceSide,
        mut recording: Option<&mut Recording>,
    ) -> CellOutcome {
        let config = &self.config;
        let image = &cell.image;
        let program = image.program();
        let num_cores = self.machine.num_cores;
        let max_steps = self.machine.max_steps;

        let mut machine = tracer.leaf("machine.new", || Machine::new(self.machine.clone(), image));
        let mut driver = tracer.leaf("pebs.driver.new", || {
            let model = ImprecisionModel::new(
                config.imprecision,
                image.memory_map(),
                (program.base_pc(), program.end_pc()),
                config.seed,
            );
            let pmu = Pmu::new(
                PmuConfig {
                    sav: config.sav,
                    num_cores,
                    ..Default::default()
                },
                model,
            );
            Driver::new(pmu, config.driver)
        });
        let mut detector = tracer.leaf("core.detector.new", || {
            Detector::new(config, program, image.memory_map())
        });
        let mut detector_cycles = 0;

        // `LaserSession::charge_detector_cycles`: spread over the cores, the
        // remainder one cycle each to the first cores.
        let charge = |machine: &mut Machine, total: &mut u64, cycles: u64| {
            *total += cycles;
            let per_core = cycles / num_cores as u64;
            if per_core > 0 {
                machine.charge_all_cores(per_core);
            }
            for core in 0..(cycles % num_cores as u64) as usize {
                machine.charge_cycles(CoreId(core), 1);
            }
        };

        loop {
            let quantum = tracer.leaf("machine.run_quantum", || {
                machine.run_quantum(config.poll_interval_steps)
            });
            side.quanta += 1;
            let status = quantum.status;
            if let Some(rec) = recording.as_deref_mut() {
                rec.keep_events(&quantum.events);
            }
            tracer.leaf("pebs.driver.ingest", || {
                driver.ingest(quantum.events, &mut machine)
            });
            let records = tracer.leaf("pebs.driver.read_records", || driver.read_records());
            if !records.is_empty() {
                if let Some(rec) = recording.as_deref_mut() {
                    rec.keep_records(&records);
                }
                tracer.leaf("core.detector.process", || detector.process(&records));
                let cycles = detector.processing_cycles(records.len());
                tracer.leaf("machine.charge", || {
                    charge(&mut machine, &mut detector_cycles, cycles)
                });
            }
            if status == RunStatus::Running && machine.steps() >= max_steps {
                return Err(format!(
                    "{}: step budget of {max_steps} exhausted",
                    cell.spec.name
                ));
            }
            if status == RunStatus::Done {
                break;
            }
        }

        // `LaserSession::finish`.
        let records = tracer.leaf("pebs.driver.flush", || {
            driver.poll(&mut machine);
            driver.flush();
            driver.read_records()
        });
        if !records.is_empty() {
            tracer.leaf("core.detector.process", || detector.process(&records));
            let cycles = detector.processing_cycles(records.len());
            tracer.leaf("machine.charge", || {
                charge(&mut machine, &mut detector_cycles, cycles)
            });
        }
        let elapsed = machine.elapsed_benchmark_seconds();
        let mut report = tracer.leaf("core.detector.report", || {
            detector.report(
                image.name(),
                elapsed,
                config.rate_threshold_hitm_per_sec,
                false,
            )
        });
        report.remote_hitm_share = machine.stats().remote_hitm_share();
        Ok(LaserOutcome {
            report,
            run: machine.result(),
            driver_stats: driver.stats(),
            detector_cycles,
            repair: None,
            elapsed_benchmark_seconds: elapsed,
            stage_occupancy: None,
        })
    }

    /// The traced pass of a pipelined or repair cell: the session itself,
    /// stepped from outside with a span around each public call.
    fn advance_cell(&self, cell: &Cell, tracer: &mut Tracer, side: &mut TraceSide) -> CellOutcome {
        let builder = self.builder(self.pipeline());
        let mut session = tracer.leaf("session.build", || builder.build(&cell.image));
        loop {
            let hooked = session.repair_triggered();
            let steps_before = session.machine().steps();
            let start = tracer.now_ns();
            let status = session
                .advance()
                .map_err(|e| format!("{}: {e}", cell.spec.name))?;
            let end = tracer.now_ns();
            side.quanta += 1;
            if hooked {
                tracer.push("session.advance.hooked", start, end);
                side.hooked_steps += session.machine().steps() - steps_before;
            } else {
                tracer.push("session.advance", start, end);
            }
            match status {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(reason) => {
                    return Err(format!("{}: stopped: {reason}", cell.spec.name))
                }
            }
        }
        Ok(tracer.leaf("session.finish", || session.finish()))
    }
}

/// Counts a traced pass keeps beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceSide {
    /// `run_quantum` / `advance` calls.
    pub quanta: u64,
    /// Instructions retired by `advance` calls made after repair attached.
    pub hooked_steps: u64,
}

/// Inputs recorded from a layered replay, for the isolated loops: the
/// `HitmEvent` batches `run_quantum` yielded and the `HitmRecord` batches
/// `read_records` returned. Capped, so recording a long cell stays cheap.
#[derive(Debug, Default)]
pub struct Recording {
    pub events: Vec<Vec<HitmEvent>>,
    pub records: Vec<Vec<HitmRecord>>,
    n_events: usize,
    n_records: usize,
}

impl Recording {
    const MAX_EVENTS: usize = 400_000;
    const MAX_RECORDS: usize = 400_000;

    fn keep_events(&mut self, batch: &[HitmEvent]) {
        if !batch.is_empty() && self.n_events < Self::MAX_EVENTS {
            self.n_events += batch.len();
            self.events.push(batch.to_vec());
        }
    }

    fn keep_records(&mut self, batch: &[HitmRecord]) {
        if self.n_records < Self::MAX_RECORDS {
            self.n_records += batch.len();
            self.records.push(batch.to_vec());
        }
    }

    pub fn n_events(&self) -> usize {
        self.n_events
    }

    pub fn n_records(&self) -> usize {
        self.n_records
    }
}

/// What a pass produced, reduced to what the metrics need. Every field is
/// simulated, so it is the same for every pass of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSummary {
    pub cell_digests: Vec<u64>,
    pub failures: Vec<String>,
    pub steps: u64,
    pub sim: SimTotals,
}

pub fn summarise(p: &Prepared, outcomes: &[CellOutcome]) -> PassSummary {
    let mut s = PassSummary {
        cell_digests: Vec::new(),
        failures: Vec::new(),
        steps: 0,
        sim: SimTotals::default(),
    };
    let mut ratios = Vec::new();
    for (cell, outcome) in p.cells.iter().zip(outcomes) {
        match outcome {
            Ok(o) => {
                s.cell_digests.push(digest::of_outcome(o));
                s.steps += o.run.steps;
                s.sim.cycles += o.run.cycles;
                ratios.push(o.normalized_runtime(&cell.native));
                let (missed, false_positives) = score_report(&cell.spec, &o.report);
                s.sim.known_bugs += cell.spec.known_bugs.len();
                s.sim.bugs_found += cell.spec.known_bugs.len() - missed;
                s.sim.sites_reported += o.report.lines.len();
                s.sim.false_positives += false_positives;
            }
            Err(why) => {
                s.cell_digests.push(0);
                s.failures.push(why.clone());
            }
        }
    }
    s.sim.sim_overhead = geomean(&ratios);
    s
}
