//! A self-contained, movable LASER run.
//!
//! [`LaserSession`] owns every piece of the deployment of the paper's
//! Figure 8 — the simulated machine, the kernel driver + PMU, the user-space
//! detector and (once triggered) the repair instrumentation. Nothing inside
//! is shared behind `Rc`/`RefCell`, so a session is `Send`: it can be built
//! on one thread, moved to a worker, and driven to completion there. That is
//! the property `laser-bench`'s campaign runner relies on to fan whole
//! `workload × tool` experiment grids across a thread pool.
//!
//! Sessions are built with [`SessionBuilder`] (obtained from
//! [`Laser::builder`](crate::system::Laser::builder)), the one way to build
//! a session:
//!
//! ```no_run
//! use laser_core::{Laser, LaserConfig};
//! # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
//!
//! let outcome = Laser::builder()
//!     .config(LaserConfig::detection_only())
//!     .build(&image())
//!     .run()
//!     .unwrap();
//! ```
//!
//! The session advances in *poll quanta*: the application runs
//! `poll_interval_steps` instructions, then the driver services the PMU and
//! the detector consumes the new records — exactly the cadence of the
//! monolithic loop this type was extracted from. A caller that steps the
//! session itself ([`LaserSession::advance`]) can read the machine, the
//! inline detector and the repair state between quanta. A session built
//! with a [`CellBudget`] stops at the first quantum that takes the machine
//! past the budget (see [`crate::budget`]).
//!
//! # Pipelined execution
//!
//! The paper's deployment has two parties: the PEBS interrupt handler (the
//! driver) runs *on the application's cores*, and the detector is a separate
//! user-space process that reads the driver's records from a device.
//! [`SessionBuilder::pipeline_config`] with [`PipelineConfig::pipelined`]
//! deploys a session the same way, on **two threads**, unless repair is on.
//! An armed repair trigger reads the detector's per-line rates at every
//! quantum, which would make the machine thread wait on the worker each
//! quantum and overlap nothing, so a repair session runs its detector inline
//! whatever its pipeline configuration ([`LaserSession::is_pipelined`] says
//! which way it went). A budget reads only the machine's step count, so a
//! budgeted detection-only session pipelines like any other.
//!
//! In a pipelined session the calling thread runs the application and the
//! driver — `run_quantum`, then [`Driver::ingest`] — exactly as an inline
//! session does; the one [`Detector`] lives on a `laser-detector` worker
//! thread and receives the sampled records in *jobs* through a bounded
//! channel (`laser_pebs::channel`). Delivery is lossless: when every job
//! buffer is in flight the producer waits for the worker to return one, and
//! nothing is ever dropped.
//!
//! The machine thread appends each quantum's records to a pending job and
//! moves on. The job goes to the worker when the next quantum's records
//! would not fit in its buffer (`JOB_RECORDS`, 4,032 records), so the worker
//! wakes once per job of one to a few quanta, and its detection overlaps the
//! quanta that follow. [`LaserSession::finish`] sends what is still pending
//! before it joins the worker.
//!
//! The worker still runs [`Detector::process`] once per quantum, on that
//! quantum's slice of the job: `process` orders records by cycle *within*
//! a batch, so merging quanta would reorder records. Record buffers
//! circulate instead of being freed: after every read the session gives the
//! driver an emptied buffer to fill next ([`Driver::give_back`]), inline
//! and pipelined, and the worker hands each processed job back emptied. A
//! job's first batch is not copied — the driver's buffer becomes the job's,
//! and the job's emptied one goes to the driver — so a pipelined session
//! circulates three `JOB_RECORDS` buffers (the driver's and `CHANNEL_DEPTH`
//! jobs'), an inline one a single buffer, and neither allocates per
//! quantum.
//!
//! The detector's per-record cost is configuration, not state, so the
//! machine is charged for each quantum's batch at the same point an inline
//! run charges it, and a pipelined run is **byte-identical** to its inline
//! equivalent. If the worker thread cannot be spawned the session simply
//! runs its detector inline.

use std::fmt;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laser_machine::machine::MachineError;
use laser_machine::{CoreId, HitmEvent, Machine, MachineConfig, RunStatus, WorkloadImage};
use laser_pebs::channel::{self, OverflowPolicy, SendOutcome};
use laser_pebs::driver::Driver;
use laser_pebs::imprecision::ImprecisionModel;
use laser_pebs::pmu::{Pmu, PmuConfig};
use laser_pebs::record::HitmRecord;

use crate::budget::{CellBudget, StopReason};
use crate::config::LaserConfig;
use crate::detect::{self, Detector, LineAggregates};
use crate::repair::{RepairPlan, SsbHook};
use crate::system::{LaserError, LaserOutcome, RepairSummary};

/// What one call to [`LaserSession::advance`] left the session in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// The application has more work; call [`LaserSession::advance`] again.
    Running,
    /// The application halted; call [`LaserSession::finish`] for the outcome.
    Done,
    /// The machine ran past the session's [`CellBudget`]. The partial state
    /// is still inspectable, and [`LaserSession::finish`] still produces the
    /// outcome of the run so far.
    Stopped(StopReason),
}

/// Jobs a pipelined session circulates: the classic double buffer — one
/// job at the detector (or queued for it), one filling on the machine
/// thread. Both channels hold that many, so no send waits on a full
/// channel: with both jobs out, the machine thread waits for the worker to
/// return one. Their buffers are what a pipelined session holds beyond an
/// inline one.
const CHANNEL_DEPTH: usize = 2;

/// Records one record buffer holds, the driver's and each job's: 126 KiB of
/// them (4,032), just under glibc's default 128 KiB mmap threshold. A
/// larger buffer is mmapped, and freeing one raises that threshold, and the
/// heap's trim threshold with it, for the rest of the process: measured
/// ≈ +0.5 MiB peak RSS on `contended_piped` (EXPERIMENTS.md, "Issue 34").
const JOB_RECORDS: usize = 126 * 1024 / std::mem::size_of::<HitmRecord>();

/// How a session's detector is deployed (see the [module docs](self) on
/// pipelined execution). The default is inline. A pipelined configuration
/// gives a session a detector worker only if repair is off; a repair
/// session runs its detector inline.
///
/// A pipelined session is byte-identical to the same run inline:
///
/// ```no_run
/// use laser_core::{Laser, LaserConfig, PipelineConfig};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// let piped = Laser::builder()
///     .config(LaserConfig::detection_only())
///     .pipeline_config(PipelineConfig::pipelined())
///     .build(&image())
///     .run()
///     .unwrap();
///
/// let inline = Laser::builder()
///     .config(LaserConfig::detection_only())
///     .build(&image())
///     .run()
///     .unwrap();
/// assert_eq!(piped.report, inline.report);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineConfig {
    /// Run the detector on a worker thread, overlapping record processing
    /// with the next quanta of application execution, if repair is off.
    pub enabled: bool,
}

impl PipelineConfig {
    /// The pipelined deployment: the detector of a detection-only session
    /// on a worker thread, fed coalesced jobs through a lossless double
    /// buffer.
    pub fn pipelined() -> Self {
        PipelineConfig { enabled: true }
    }
}

/// Fluent construction of a [`LaserSession`]: LASER configuration, machine
/// configuration, an optional [`CellBudget`] and the pipeline deployment,
/// in any order, then [`SessionBuilder::build`].
///
/// ```no_run
/// use laser_core::{CellBudget, Laser, LaserConfig, PipelineConfig, SessionStatus};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// let mut session = Laser::builder()
///     .config(LaserConfig::default().with_seed(7))
///     .machine(laser_machine::MachineConfig::default())
///     .pipeline_config(PipelineConfig::pipelined())
///     .budget(CellBudget::steps(50_000_000))
///     .build(&image());
/// while session.advance().unwrap() == SessionStatus::Running {
///     if session.repair_triggered() {
///         eprintln!("repair attached by cycle {}", session.machine().cycles());
///         break;
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct SessionBuilder {
    config: LaserConfig,
    machine: MachineConfig,
    budget: CellBudget,
    pipeline: PipelineConfig,
}

impl SessionBuilder {
    /// A builder with the default LASER and machine configurations and no
    /// budget. Equivalent to [`Laser::builder`](crate::system::Laser::builder).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Set the LASER configuration (default: [`LaserConfig::default`]).
    pub fn config(mut self, config: LaserConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the machine configuration (default: [`MachineConfig::default`]).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Set the pipeline deployment (default: inline).
    /// [`PipelineConfig::pipelined`] runs the detector on a worker thread,
    /// overlapped with application execution, if repair is off; a repair
    /// session stays inline. The results are byte-identical either way, only
    /// the wall-clock changes.
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Hold the run to `budget` (default: unlimited). At the end of every
    /// quantum that takes the machine past it, [`LaserSession::advance`]
    /// reports [`SessionStatus::Stopped`] with the budget's [`StopReason`].
    pub fn budget(mut self, budget: CellBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Construct the session for `image`. Pure setup: nothing runs until
    /// [`LaserSession::advance`] or [`LaserSession::run`]. Under
    /// [`PipelineConfig::pipelined`] a session with repair off spawns its
    /// detector thread here, idle on an empty channel; a repair session
    /// builds its detector inline.
    ///
    /// A non-flat [`LaserConfig::topology`] deploys the machine on that
    /// preset (its socket topology and 4-cores-per-socket count) unless the
    /// caller supplied a machine configuration with its own non-default
    /// topology, which then wins.
    ///
    /// # Panics
    /// Panics if the machine configuration fails validation — a zero clock
    /// frequency, a non-monotone latency ladder, or cross-socket latencies
    /// cheaper than local ones — so nonsense cost models are rejected here
    /// instead of producing corrupt HITM rates downstream.
    pub fn build(self, image: &WorkloadImage) -> LaserSession {
        let SessionBuilder {
            config,
            machine: mut machine_config,
            budget,
            pipeline,
        } = self;
        if config.topology != laser_machine::TopologySpec::Flat
            && machine_config.topology == laser_machine::Topology::single_socket()
        {
            machine_config.topology = config.topology.topology();
            if machine_config.num_cores == MachineConfig::default().num_cores {
                machine_config.num_cores = config.topology.num_cores();
            }
        }
        let max_steps = machine_config.max_steps;
        let num_cores = machine_config.num_cores;
        let machine = Machine::new(machine_config, image);

        let program = image.program();
        let code_range = (program.base_pc(), program.end_pc());
        let model = ImprecisionModel::new(
            config.imprecision,
            image.memory_map(),
            code_range,
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
        let new_detector = || Detector::new(&config, program, image.memory_map());
        // Only a session whose detector nothing reads mid-run (repair off)
        // overlaps with a worker. A failed spawn has consumed its detector;
        // both deployments produce the same bytes, so the session falls back
        // to a fresh inline one.
        let worker = if pipeline.enabled && !config.enable_repair {
            DetectorWorker::spawn(new_detector()).ok()
        } else {
            None
        };
        let detector = match worker {
            Some(worker) => DetectorStage::Worker(worker),
            None => DetectorStage::Inline(Box::new(new_detector())),
        };

        let mut driver = Driver::new(pmu, config.driver);
        // The driver's record buffer is sized like a job's, so the two can
        // trade places (see `DetectorWorker::process`).
        driver.give_back(Vec::with_capacity(JOB_RECORDS));
        LaserSession {
            driver,
            detector,
            aggs: LineAggregates::default(),
            app: AppSide {
                config,
                machine,
                budget,
                workload: image.name().to_string(),
                num_cores,
                max_steps,
                detector_cycles: 0,
                repair: None,
                machine_busy: Duration::ZERO,
                driver_busy: Duration::ZERO,
            },
        }
    }
}

/// Cumulative busy time of each stage of a pipelined session, measured on
/// the thread that runs the stage. Only meaningful relative to the run's
/// wall clock: `busy / wall` is the stage's occupancy, and the largest
/// fraction names the pipeline's bottleneck.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Time the machine thread spent inside `run_quantum`.
    pub machine_busy: Duration,
    /// Time the machine thread spent inside [`Driver::ingest`] (PMU
    /// sampling, imprecision, record copy).
    pub driver_busy: Duration,
    /// Time the detector thread spent processing records.
    pub detector_busy: Duration,
}

/// One hand-off to the detector worker: the records of one or more
/// consecutive quanta, back to back in one buffer.
#[derive(Default)]
struct DetectJob {
    records: Vec<HitmRecord>,
    /// Where each quantum's batch ends in `records`, in quantum order.
    ends: Vec<usize>,
}

impl DetectJob {
    /// An empty job with room for `JOB_RECORDS` records.
    fn new() -> Self {
        DetectJob {
            records: Vec::with_capacity(JOB_RECORDS),
            ends: Vec::with_capacity(16),
        }
    }

    /// The job's quantum batches, in order.
    fn batches(&self) -> impl Iterator<Item = &[HitmRecord]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let batch = &self.records[start..end];
            start = end;
            batch
        })
    }
}

/// The detector worker's loop: consume jobs in FIFO order until the session
/// closes the channel, returning each one emptied, then hand the detector
/// (and the time spent on it) back. `process` runs [`Detector::process`] on
/// each of a job's batches outside tests.
fn detector_worker(
    mut detector: Detector,
    jobs: channel::Receiver<DetectJob>,
    done: channel::Sender<DetectJob>,
    mut process: impl FnMut(&mut Detector, &DetectJob),
) -> (Detector, Duration) {
    let mut busy = Duration::ZERO;
    while let Some(mut job) = jobs.recv() {
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let start = Instant::now();
        process(&mut detector, &job);
        job.records.clear();
        job.ends.clear();
        busy += start.elapsed();
        // A closed return channel just means the session was dropped
        // mid-run; keep draining so the job channel closes cleanly.
        let _ = done.send(job);
    }
    (detector, busy)
}

/// The session's end of a detector that lives on the `laser-detector` thread.
struct DetectorWorker {
    jobs: channel::Sender<DetectJob>,
    /// Processed jobs coming back. Its capacity is `CHANNEL_DEPTH`, so the
    /// worker never waits to return one.
    done: channel::Receiver<DetectJob>,
    /// The job the machine thread is filling; it has no buffer until its
    /// first batch.
    pending: DetectJob,
    /// The jobs that have never been sent: every job at spawn.
    free: Vec<DetectJob>,
    /// Jobs sent.
    sent: u64,
    /// `None` once the thread has been joined.
    thread: Option<JoinHandle<(Detector, Duration)>>,
}

impl DetectorWorker {
    fn spawn(detector: Detector) -> std::io::Result<Self> {
        Self::spawn_with(detector, |detector, job| {
            for batch in job.batches() {
                detector.process(batch);
            }
        })
    }

    /// [`DetectorWorker::spawn`] with the per-job step injected, so a test
    /// can make the worker die mid-run.
    fn spawn_with(
        detector: Detector,
        process: impl FnMut(&mut Detector, &DetectJob) + Send + 'static,
    ) -> std::io::Result<Self> {
        let (jobs, jobs_rx) = channel::bounded(CHANNEL_DEPTH, OverflowPolicy::Backpressure);
        let (done_tx, done) = channel::bounded(CHANNEL_DEPTH, OverflowPolicy::Backpressure);
        let thread = std::thread::Builder::new()
            .name("laser-detector".into())
            .spawn(move || detector_worker(detector, jobs_rx, done_tx, process))?;
        Ok(DetectorWorker {
            jobs,
            done,
            pending: DetectJob::default(),
            free: (0..CHANNEL_DEPTH).map(|_| DetectJob::new()).collect(),
            sent: 0,
            thread: Some(thread),
        })
    }

    /// Add one quantum's batch to the pending job, sending the job first if
    /// the batch would not fit, so a job never outgrows its buffer (a
    /// single batch of more than `JOB_RECORDS` records still goes whole).
    /// The first batch of a job is not copied: its buffer becomes the job's,
    /// and the job's emptied buffer is what comes back for the driver to
    /// fill next.
    fn process(&mut self, batch: Vec<HitmRecord>) -> Vec<HitmRecord> {
        if self.pending.records.len() + batch.len() > JOB_RECORDS {
            self.send_pending();
        }
        let spare = if self.pending.ends.is_empty() {
            if self.pending.records.capacity() == 0 {
                self.pending = self.empty_job();
            }
            std::mem::replace(&mut self.pending.records, batch)
        } else {
            self.pending.records.extend_from_slice(&batch);
            batch
        };
        self.pending.ends.push(self.pending.records.len());
        spare
    }

    /// Hand the pending job, if it holds a batch, to the worker. The worker
    /// holds its ends of both channels for as long as it runs, so a closed
    /// channel means it died mid-run: fail the session now, with the
    /// worker's own panic, instead of simulating the rest of the cell for
    /// nothing.
    fn send_pending(&mut self) {
        if self.pending.ends.is_empty() {
            return;
        }
        let job = std::mem::take(&mut self.pending);
        if self.jobs.send(job) != SendOutcome::Sent {
            self.died();
        }
        self.sent += 1;
    }

    /// An emptied job to fill: one the worker has returned — first, so a
    /// worker that keeps up leaves the other buffer untouched — else one on
    /// hand, else the next one the worker returns.
    fn empty_job(&mut self) -> DetectJob {
        if let Some(job) = self.done.try_recv() {
            return job;
        }
        if let Some(job) = self.free.pop() {
            return job;
        }
        match self.done.recv() {
            Some(job) => job,
            None => self.died(),
        }
    }

    /// The worker closed a channel the session still holds. Join it and
    /// re-raise its panic payload — the real diagnostic, which the campaign
    /// runner's per-cell `catch_unwind` records as the cell's failure.
    fn died(&mut self) -> ! {
        match self.thread.take().map(JoinHandle::join) {
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            _ => worker_exited_early(),
        }
    }

    /// Send the pending job, close the job channel so the worker drains its
    /// queue and exits, then join it and take back the detector and its busy
    /// time. A panic on the worker is re-raised here.
    fn join(mut self) -> (Detector, Duration) {
        self.send_pending();
        let DetectorWorker { jobs, thread, .. } = self;
        drop(jobs);
        match thread.map(JoinHandle::join) {
            Some(Ok(reclaimed)) => reclaimed,
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            // Only reachable by reusing a session whose worker already died.
            None => worker_exited_early(),
        }
    }
}

/// The detector worker exited while the session still held its channel, with
/// no panic of its own to re-raise.
#[expect(
    clippy::panic,
    reason = "a worker exiting with its channel open is a protocol bug worth crashing the cell"
)]
fn worker_exited_early() -> ! {
    panic!("pipeline stage worker exited before its channel closed")
}

/// Where the session's one [`Detector`] lives. The two deployments differ
/// only in how a batch reaches it. Fixed at construction: a worker only for
/// a session with repair off (see [`SessionBuilder::build`]).
enum DetectorStage {
    Inline(Box<Detector>),
    Worker(DetectorWorker),
}

impl DetectorStage {
    /// Run one quantum's batch through the detector, returning an emptied
    /// record buffer for the driver to fill next. With `read` — asked only
    /// of an inline detector, the one kind an armed repair trigger reads —
    /// also return its per-line aggregates as of that batch.
    fn process(
        &mut self,
        records: Vec<HitmRecord>,
        read: bool,
    ) -> (Option<LineAggregates>, Vec<HitmRecord>) {
        match self {
            DetectorStage::Inline(detector) => {
                detector.process(&records);
                (read.then(|| detector.line_aggregates()), records)
            }
            DetectorStage::Worker(worker) => (None, worker.process(records)),
        }
    }

    /// Take the detector back for the final flush and the report, with the
    /// worker thread's busy time if there was one.
    fn join(self) -> (Detector, Option<Duration>) {
        match self {
            DetectorStage::Inline(detector) => (*detector, None),
            DetectorStage::Worker(worker) => {
                let (detector, busy) = worker.join();
                (detector, Some(busy))
            }
        }
    }
}

/// The application half of a session — machine, budget, repair and
/// overhead accounting — which behaves the same wherever the detector lives.
struct AppSide {
    config: LaserConfig,
    machine: Machine,
    budget: CellBudget,
    workload: String,
    num_cores: usize,
    max_steps: u64,
    detector_cycles: u64,
    repair: Option<RepairSummary>,
    /// Wall time spent inside `run_quantum` (pipelined sessions only; inline
    /// runs skip the measurement entirely).
    machine_busy: Duration,
    /// Wall time spent inside `Driver::ingest`, likewise.
    driver_busy: Duration,
}

/// An in-flight LASER run: application, driver, detector and (optionally)
/// repair, as one owned value.
pub struct LaserSession {
    app: AppSide,
    driver: Driver,
    detector: DetectorStage,
    /// The inline detector's per-line aggregates as of the last batch read
    /// while repair was armed: what the armed repair trigger evaluates
    /// between batches.
    aggs: LineAggregates,
}

impl fmt::Debug for LaserSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaserSession")
            .field("config", &self.app.config)
            .field("machine", &self.app.machine)
            .field("pipelined", &self.is_pipelined())
            .field("workload", &self.app.workload)
            .field("num_cores", &self.app.num_cores)
            .field("max_steps", &self.app.max_steps)
            .field("budget", &self.app.budget)
            .field("detector_cycles", &self.app.detector_cycles)
            .field("repair", &self.app.repair)
            .finish_non_exhaustive()
    }
}

impl AppSide {
    /// The mean cost of this run's HITM events relative to a local one.
    ///
    /// The paper's repair trigger is a threshold on the false-sharing *event
    /// rate*, calibrated to a single socket where every HITM costs the same.
    /// On a multi-socket part each cross-socket HITM is 2–3× dearer — and
    /// therefore *rarer per second*, because the contended line ping-pongs
    /// more slowly — so a raw event-rate trigger under-fires exactly where
    /// repair pays most. Weighting the trigger by this factor makes it a
    /// threshold on the *cost* of the false sharing, which is what repair
    /// recovers. On a single-socket topology the factor is exactly 1.0, so
    /// flat runs are byte-identical to the pre-topology trigger.
    fn hitm_cost_factor(&self) -> f64 {
        let stats = self.machine.stats();
        let share = stats.remote_hitm_share();
        if share == 0.0 {
            return 1.0;
        }
        let local = self.machine.latency().hitm.max(1) as f64;
        let remote = self.machine.topology().remote_latency().remote_hitm as f64;
        1.0 + share * (remote / local - 1.0)
    }

    /// The repair trigger threshold with the topology cost weighting applied
    /// (see [`AppSide::hitm_cost_factor`]).
    fn effective_repair_threshold(&self) -> f64 {
        self.config.repair_rate_threshold / self.hitm_cost_factor()
    }

    /// Charge the detector's work on a batch of `records` records to the
    /// machine, spread over the cores. The per-record cost is configuration,
    /// not detector state, so the batch is priced here — at the same machine
    /// point whether the detector processes it on this thread or overlaps it
    /// on the worker. Integer division would silently drop
    /// `cycles % num_cores` — on small batches that rounds the whole charge
    /// down to zero — so the remainder is distributed one cycle each to the
    /// first cores, keeping the total charged exactly `cycles` (the same
    /// policy as the driver's record-copy charging).
    fn charge_detector_batch(&mut self, records: usize) {
        let cycles =
            detect::batch_processing_cycles(self.config.detector_cycles_per_record, records);
        self.detector_cycles += cycles;
        let per_core = cycles / self.num_cores as u64;
        if per_core > 0 {
            self.machine.charge_all_cores(per_core);
        }
        let remainder = (cycles % self.num_cores as u64) as usize;
        for core in 0..remainder {
            self.machine.charge_cycles(CoreId(core), 1);
        }
    }

    /// Whether LASERREPAIR is enabled and has not attached yet.
    fn repair_armed(&self) -> bool {
        self.config.enable_repair && self.repair.is_none()
    }

    /// Evaluate the armed repair trigger against the detector's per-line
    /// `aggs`. It runs at every boundary, not only when a batch lands,
    /// because rates decay as elapsed time grows. Attaches the SSB
    /// instrumentation when the lines over the threshold yield a profitable
    /// plan.
    fn evaluate_trigger(&mut self, aggs: &LineAggregates) {
        let elapsed = self.machine.elapsed_benchmark_seconds();
        let threshold = self.effective_repair_threshold();
        let pcs = detect::trigger_pcs_from(aggs, elapsed, threshold);
        if pcs.is_empty() {
            return;
        }
        let Some(plan) = RepairPlan::analyze(
            self.machine.program(),
            &pcs,
            self.config.min_stores_per_flush,
            self.config.max_plan_blocks,
        ) else {
            return;
        };
        if !plan.profitable {
            return;
        }
        let hook = SsbHook::new(plan.clone(), self.num_cores);
        self.repair = Some(RepairSummary {
            triggered_at_cycle: self.machine.cycles(),
            plan,
            stats: hook.stats(),
        });
        self.machine.attach_hook(Box::new(hook));
    }
}

impl LaserSession {
    /// The machine being monitored.
    pub fn machine(&self) -> &Machine {
        &self.app.machine
    }

    /// The detector's live state, when the detector runs inline. A pipelined
    /// session's detector lives on its worker thread, so this is `None`.
    pub fn detector(&self) -> Option<&Detector> {
        match &self.detector {
            DetectorStage::Inline(detector) => Some(detector),
            DetectorStage::Worker(_) => None,
        }
    }

    /// Whether the detector runs pipelined on a worker thread: only under
    /// [`PipelineConfig::pipelined`] with repair off.
    pub fn is_pipelined(&self) -> bool {
        matches!(self.detector, DetectorStage::Worker(_))
    }

    /// Cycles the detector process has consumed so far.
    pub fn detector_cycles(&self) -> u64 {
        self.app.detector_cycles
    }

    /// Whether LASERREPAIR has been attached.
    pub fn repair_triggered(&self) -> bool {
        self.app.repair.is_some()
    }

    /// Run one poll quantum: `poll_interval_steps` application instructions,
    /// one driver service pass, one detector batch, and — when the
    /// false-sharing rate crosses the threshold — the repair attachment
    /// decision. If the quantum took the machine past the session's
    /// [`CellBudget`], the session reports [`SessionStatus::Stopped`] right
    /// after the driver has serviced the quantum, leaving its records staged
    /// in the driver for a later [`LaserSession::finish`], which never
    /// undercounts.
    ///
    /// In a pipelined session the detector consumes the batch on its own
    /// thread; the machine charging is identical to an inline run (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// Returns an error if the machine exhausts its step budget.
    pub fn advance(&mut self) -> Result<SessionStatus, LaserError> {
        let timed = self.is_pipelined();
        let app = &mut self.app;
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let start = timed.then(Instant::now);
        let quantum = app.machine.run_quantum(app.config.poll_interval_steps);
        if let Some(start) = start {
            app.machine_busy += start.elapsed();
        }
        let status = quantum.status;

        if let Err(reason) = self.settle_boundary(quantum.events) {
            return Ok(SessionStatus::Stopped(reason));
        }

        let app = &self.app;
        if status == RunStatus::Running && app.machine.steps() >= app.max_steps {
            return Err(LaserError::Machine(MachineError::MaxStepsExceeded {
                steps: app.max_steps,
            }));
        }
        Ok(match status {
            RunStatus::Running => SessionStatus::Running,
            RunStatus::Done => SessionStatus::Done,
        })
    }

    /// The quantum boundary: service the quantum's raw HITM batch on this
    /// thread, check the budget, hand the sampled records to the detector,
    /// and evaluate the armed repair trigger.
    fn settle_boundary(&mut self, events: Vec<HitmEvent>) -> Result<(), StopReason> {
        let timed = self.is_pipelined();
        let app = &mut self.app;
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let start = timed.then(Instant::now);
        self.driver.ingest(events, &mut app.machine);
        if let Some(start) = start {
            app.driver_busy += start.elapsed();
        }
        app.budget.check(app.machine.steps())?;
        let records = self.driver.read_records();
        let n = records.len();
        if n == 0 {
            self.driver.give_back(records);
        } else {
            // Only an armed trigger reads the aggregates, and a repair
            // session runs its detector inline.
            let (aggs, spare) = self.detector.process(records, app.repair_armed());
            self.driver.give_back(spare);
            if let Some(aggs) = aggs {
                self.aggs = aggs;
            }
            app.charge_detector_batch(n);
        }
        if app.repair_armed() {
            app.evaluate_trigger(&self.aggs);
        }
        Ok(())
    }

    /// Drive the session to completion.
    ///
    /// # Errors
    /// Returns [`LaserError::Machine`] if the machine exhausts its step
    /// limit, and [`LaserError::Stopped`] if the run went past the session's
    /// [`CellBudget`].
    pub fn run(mut self) -> Result<LaserOutcome, LaserError> {
        loop {
            match self.advance()? {
                SessionStatus::Running => {}
                SessionStatus::Done => return Ok(self.finish()),
                SessionStatus::Stopped(reason) => return Err(LaserError::Stopped(reason)),
            }
        }
    }

    /// Flush what is still buffered in the PEBS hardware, fold the repair
    /// hook's final counters into the summary, and produce the outcome.
    ///
    /// The final flush batch is charged to the machine exactly like an
    /// [`advance`](LaserSession::advance) batch — the detector is still
    /// sharing the chip while it drains the device — so the outcome's cycle
    /// count accounts for every record the detector processed. A pipelined
    /// session first sends its pending job and joins its worker, which
    /// drains every job before handing the detector back, so the final
    /// flush (and the report) sees them all.
    pub fn finish(self) -> LaserOutcome {
        let LaserSession {
            mut app,
            mut driver,
            detector,
            ..
        } = self;
        let (mut detector, detector_busy) = detector.join();

        driver.poll(&mut app.machine);
        driver.flush();
        let records = driver.read_records();
        if !records.is_empty() {
            detector.process(&records);
            app.charge_detector_batch(records.len());
        }

        if let Some(summary) = app.repair.as_mut() {
            // The hook owns its statistics; read them back out of the machine.
            if let Some(ssb) = SsbHook::attached_to(&app.machine) {
                summary.stats = ssb.stats();
            }
        }

        let elapsed = app.machine.elapsed_benchmark_seconds();
        let mut report = detector.report(
            &app.workload,
            elapsed,
            app.config.rate_threshold_hitm_per_sec,
            app.repair.is_some(),
        );
        // The detector only sees sampled records; the ground-truth socket
        // split comes from the machine.
        report.remote_hitm_share = app.machine.stats().remote_hitm_share();
        LaserOutcome {
            report,
            run: app.machine.result(),
            driver_stats: driver.stats(),
            detector_cycles: app.detector_cycles,
            repair: app.repair,
            elapsed_benchmark_seconds: elapsed,
            stage_occupancy: detector_busy.map(|detector_busy| StageOccupancy {
                machine_busy: app.machine_busy,
                driver_busy: app.driver_busy,
                detector_busy,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Laser;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::ThreadSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// One counting loop — `counter[i]++` as the memory-destination increment
    /// compilers emit, `iters` times — in blocks `{prefix}entry`/`body`/`exit`,
    /// attributed to `file:line` and `line + 1`.
    fn counting_loop(b: &mut ProgramBuilder, prefix: &str, file: &str, line: u32, iters: u64) {
        b.source(file, line);
        let entry = b.block(&format!("{prefix}entry"));
        let body = b.block(&format!("{prefix}body"));
        let exit = b.block(&format!("{prefix}exit"));
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.mem_add(Reg(0), 0, Operand::Imm(1), 8);
        b.source(file, line + 1);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
    }

    /// Two threads false-sharing adjacent counters in one cache line.
    fn contended_image(name: &str, iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new(name);
        counting_loop(&mut b, "", "xthread.c", 12, iters);
        let mut image = laser_machine::WorkloadImage::new(name, b.finish());
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "entry").with_reg(Reg(0), base));
        image.push_thread(ThreadSpec::new("t1", "entry").with_reg(Reg(0), base + 8));
        image
    }

    /// Advance `session` until its budget stops it: the number of quanta
    /// that took, the stopping one included, and the reason.
    fn advance_to_stop(session: &mut LaserSession) -> (u32, StopReason) {
        let mut quanta = 0;
        loop {
            quanta += 1;
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => panic!("the budget should stop the run first"),
                SessionStatus::Stopped(reason) => return (quanta, reason),
            }
        }
    }

    /// The whole point of the session refactor: a full LASER run is one owned
    /// value that can move across threads.
    #[test]
    fn session_and_its_pieces_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LaserSession>();
        assert_send::<Machine>();
        assert_send::<Driver>();
        assert_send::<Detector>();
        assert_send::<LaserOutcome>();
    }

    #[test]
    fn session_run_on_a_worker_thread_matches_inline_run() {
        let image = contended_image("xthread", 1500);

        let inline = Laser::builder().build(&image).run().unwrap();

        let session = Laser::builder().build(&image);
        let moved = std::thread::spawn(move || session.run().unwrap())
            .join()
            .unwrap();

        assert_eq!(inline.cycles(), moved.cycles());
        assert_eq!(inline.report, moved.report);
        assert_eq!(inline.detector_cycles, moved.detector_cycles);
    }

    /// Regression test for two charging bugs: `advance` used to drop the
    /// `cycles % num_cores` remainder when spreading detector overhead (the
    /// same bug class as the driver's record-copy charging), and `finish`
    /// accumulated the final flush batch's detector cycles without charging
    /// the cores at all. Every injected cycle must now be accounted for:
    /// driver overhead plus detector cycles, exactly.
    #[test]
    fn detector_overhead_is_charged_exactly_including_the_final_flush() {
        let image = contended_image("exact", 3000);
        // A per-record cost that is odd and coprime with the core count so
        // batch charges almost always leave a remainder.
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let outcome = Laser::builder().config(config).build(&image).run().unwrap();
        assert!(outcome.detector_cycles > 0);
        // The final flush processed records too: the detector's total must be
        // per-record cost times *all* sampled records, not just the polled
        // batches.
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles,
            "total charged must equal driver overhead + detector cycles"
        );
    }

    #[test]
    fn stopped_session_can_still_finish_without_undercounting() {
        // A budget trips after the driver has sampled the quantum's records
        // and before the detector reads them: a subsequent finish() must
        // process and charge them, so the detector accounting still
        // balances.
        let image = contended_image("stopfin", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let limit = config.poll_interval_steps * 2;
        let mut session = Laser::builder()
            .config(config)
            .budget(CellBudget::steps(limit))
            .build(&image);
        let (_, reason) = advance_to_stop(&mut session);
        let used = session.machine().steps();
        assert_eq!(reason, StopReason::StepBudget { limit, used });
        let outcome = session.finish();
        assert!(outcome.driver_stats.records_sampled > 0);
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37,
            "every sampled record must be processed and charged exactly once"
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles
        );
    }

    #[test]
    fn a_budget_stops_a_session_at_the_first_quantum_past_it() {
        let image = contended_image("budget", 50_000);
        let config = LaserConfig::detection_only();
        // The machine's step count and the detector's records at the end
        // of each quantum, unbudgeted.
        let mut free = Laser::builder().config(config.clone()).build(&image);
        let (mut ends, mut received) = (Vec::new(), Vec::new());
        while free.advance().unwrap() == SessionStatus::Running {
            ends.push(free.machine().steps());
            received.push(free.detector().unwrap().records_received());
        }
        let budgeted = |limit| {
            Laser::builder()
                .config(config.clone())
                .budget(CellBudget::steps(limit))
                .build(&image)
        };
        // On a quantum end, just below one and just above one.
        for limit in [ends[2], ends[2] - 1, ends[2] + 1] {
            let quantum = ends.iter().position(|&end| end > limit).unwrap();
            let used = ends[quantum];
            assert_eq!(
                advance_to_stop(&mut budgeted(limit)),
                (quantum as u32 + 1, StopReason::StepBudget { limit, used })
            );
        }
        // The check comes before the detector reads the quantum's batch: a
        // stop at a quantum that delivered records leaves them for `finish`.
        let k = (1..received.len())
            .find(|&k| received[k] > received[k - 1])
            .unwrap();
        let mut session = budgeted(ends[k - 1]);
        assert_eq!(advance_to_stop(&mut session).0, k as u32 + 1);
        assert_eq!(
            session.detector().unwrap().records_received(),
            received[k - 1]
        );
        // `run` surfaces the stop as an error.
        assert_eq!(
            budgeted(ends[2]).run().unwrap_err(),
            LaserError::Stopped(StopReason::StepBudget {
                limit: ends[2],
                used: ends[3]
            })
        );
    }

    #[test]
    fn advance_reports_stopped_and_leaves_state_inspectable() {
        let image = contended_image("stopped", 50_000);
        let mut session = Laser::builder().budget(CellBudget::steps(1)).build(&image);
        let status = session.advance().unwrap();
        let used = session.machine().steps();
        assert_eq!(
            status,
            SessionStatus::Stopped(StopReason::StepBudget { limit: 1, used })
        );
        // The partial run is still inspectable.
        assert!(used > 1);
        assert!(!session.repair_triggered());
    }

    #[test]
    fn config_topology_deploys_the_machine_on_the_preset() {
        use laser_machine::{ThreadPlacement, TopologySpec};
        // Two threads false-sharing one line, pinned to different sockets:
        // the session must surface the cross-socket share mid-run and in the
        // final report.
        let mut image = contended_image("xsock", 4000);
        image.set_thread_placement(ThreadPlacement::RoundRobin);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only().with_topology(TopologySpec::DualSocket))
            .build(&image);
        assert_eq!(session.machine().num_cores(), 8);
        assert_eq!(session.machine().topology().num_sockets(), 2);
        let mut live_share = 0.0f64;
        loop {
            let status = session.advance().unwrap();
            live_share = live_share.max(session.machine().stats().remote_hitm_share());
            match status {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        assert!(live_share > 0.99, "{live_share}");
        let outcome = session.finish();
        let stats = &outcome.run.stats;
        assert!(stats.hitm_remote > 0, "threads sit on different sockets");
        assert_eq!(stats.hitm_remote, stats.hitm_events);
        assert!((outcome.report.remote_hitm_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_machine_topology_wins_over_the_config_preset() {
        use laser_machine::{MachineConfig, Topology, TopologySpec};
        let image = contended_image("topoprec", 500);
        let session = Laser::builder()
            .config(LaserConfig::detection_only().with_topology(TopologySpec::DualSocket))
            .machine(MachineConfig {
                num_cores: 16,
                topology: Topology::quad_socket(),
                ..MachineConfig::default()
            })
            .build(&image);
        assert_eq!(session.machine().topology().num_sockets(), 4);
        assert_eq!(session.machine().num_cores(), 16);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn build_rejects_a_nonsense_latency_model() {
        use laser_machine::{LatencyModel, MachineConfig};
        let image = contended_image("badlat", 100);
        let _ = Laser::builder()
            .machine(MachineConfig {
                latency: LatencyModel {
                    freq_hz: 0,
                    ..LatencyModel::default()
                },
                ..MachineConfig::default()
            })
            .build(&image);
    }

    // ------------------------------------------------------------------
    // Pipelined execution
    // ------------------------------------------------------------------

    #[test]
    fn pipeline_config_defaults_are_a_lossless_double_buffer() {
        assert!(!PipelineConfig::default().enabled, "inline unless asked");
        assert!(PipelineConfig::pipelined().enabled);
        assert_eq!(CHANNEL_DEPTH, 2, "one batch in flight, one staged");
    }

    #[test]
    fn pipelined_detection_run_is_byte_identical_to_inline() {
        let image = contended_image("piped", 6000);
        let config = LaserConfig::detection_only();

        let inline = Laser::builder()
            .config(config.clone())
            .build(&image)
            .run()
            .unwrap();
        let piped = Laser::builder()
            .config(config)
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image)
            .run()
            .unwrap();

        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.run.per_core_cycles, piped.run.per_core_cycles);
        assert_eq!(inline.report, piped.report);
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
        assert_eq!(inline.driver_stats, piped.driver_stats);
        assert_eq!(
            format!("{:?}", inline.report),
            format!("{:?}", piped.report)
        );
    }

    #[test]
    fn pipelined_repair_run_attaches_at_the_same_cycle_as_inline() {
        // With repair enabled a pipelined configuration runs inline; the
        // attach point, plan and final outcome must match inline exactly.
        let image = contended_image("piperep", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();
        let piped = Laser::builder()
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image)
            .run()
            .unwrap();

        assert!(inline.repair.is_some(), "workload should trigger repair");
        let (a, b) = (
            inline.repair.as_ref().unwrap(),
            piped.repair.as_ref().unwrap(),
        );
        assert_eq!(a.triggered_at_cycle, b.triggered_at_cycle);
        // (Plan sets are HashSets whose Debug order is unstable; compare
        // structurally.)
        assert_eq!(a.plan.instrumented_blocks, b.plan.instrumented_blocks);
        assert_eq!(a.plan.flush_blocks, b.plan.flush_blocks);
        assert_eq!(a.plan.ssb_stores, b.plan.ssb_stores);
        assert_eq!(
            a.plan.estimated_stores_per_flush,
            b.plan.estimated_stores_per_flush
        );
        assert_eq!(a.stats, b.stats);
        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.report, piped.report);
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
    }

    #[test]
    fn pipelined_session_exposes_stage_and_reclaims_detector() {
        let image = contended_image("reclaim", 1500);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image);
        assert!(session.is_pipelined());
        assert!(
            session.detector().is_none(),
            "the worker stage owns the detector while the pipeline runs"
        );
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        let outcome = session.finish();
        assert!(outcome.report.lines.iter().any(|l| l.hitm_records > 0));
    }

    #[test]
    fn pipelined_budget_cancellation_matches_inline() {
        // A budget reads only the machine's step count, so a budgeted
        // detection-only session keeps its worker, stops at the same quantum
        // with the same reason as inline, and finishes to the same outcome,
        // joining its worker on the way.
        let image = contended_image("pipbudget", 40_000);
        let budget = CellBudget::steps(sav1().poll_interval_steps * 12);
        let build = |pipelined: bool| {
            Laser::builder()
                .config(sav1())
                .pipeline_config(PipelineConfig { enabled: pipelined })
                .budget(budget)
                .build(&image)
        };
        let alive = Arc::new(());
        let mut piped = with_worker_dying_on_job(u64::MAX, build(true), &image, &alive);
        let mut inline = build(false);
        let stop = advance_to_stop(&mut inline);
        assert_eq!(advance_to_stop(&mut piped), stop);
        assert!(worker(&piped).sent > 0, "jobs reached the worker first");
        assert_same_outcome(&inline.finish(), &piped.finish());
        assert_eq!(Arc::strong_count(&alive), 1, "finish joined the worker");
        // `run` reports the same stop either way.
        assert_eq!(
            build(false).run().unwrap_err(),
            build(true).run().unwrap_err()
        );
    }

    #[test]
    fn stopped_pipelined_session_still_finishes_without_undercounting() {
        // Budgeted and detection-only, so the session keeps its worker: at
        // the stop, batches sit with the worker, in the pending job and
        // staged in the driver, and finish() must charge every sampled
        // record exactly once.
        let image = contended_image("pipstop", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let limit = config.poll_interval_steps * 2;
        let mut session = Laser::builder()
            .config(config)
            .pipeline_config(PipelineConfig::pipelined())
            .budget(CellBudget::steps(limit))
            .build(&image);
        assert!(session.is_pipelined());
        let (_, reason) = advance_to_stop(&mut session);
        let used = session.machine().steps();
        assert_eq!(reason, StopReason::StepBudget { limit, used });
        let outcome = session.finish();
        assert!(outcome.driver_stats.records_sampled > 0);
        assert_eq!(
            outcome.detector_cycles,
            outcome.driver_stats.records_sampled * 37,
            "every sampled record must be processed and charged exactly once"
        );
        assert_eq!(
            outcome.run.stats.injected_overhead_cycles,
            outcome.driver_stats.overhead_cycles + outcome.detector_cycles
        );
    }

    #[test]
    fn stage_occupancy_is_reported_for_pipelined_runs_only() {
        let image = contended_image("occup", 6000);
        let piped = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image)
            .run()
            .unwrap();
        let occupancy = piped
            .stage_occupancy
            .expect("pipelined runs report occupancy");
        assert!(
            occupancy.machine_busy > Duration::ZERO,
            "the machine stage did real work"
        );
        let inline = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        assert!(
            inline.stage_occupancy.is_none(),
            "inline runs skip the measurement"
        );
        // Occupancy is bookkeeping about the run, never an input to it.
        assert_eq!(piped.report, inline.report);
        assert_eq!(piped.cycles(), inline.cycles());
    }

    #[test]
    fn dropping_a_pipelined_session_mid_run_shuts_the_worker_down() {
        let image = contended_image("pipdrop", 50_000);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image);
        for _ in 0..3 {
            assert_eq!(session.advance().unwrap(), SessionStatus::Running);
        }
        // Dropping the session drops the job sender; the worker drains and
        // exits rather than leaking a parked thread. (A deadlock here would
        // hang the test suite, which is the assertion.)
        drop(session);
    }

    /// [`contended_image`] plus two threads truly sharing one counter on a
    /// second line, which repair leaves alone: HITM records keep flowing
    /// after repair attaches.
    fn mixed_image(name: &str, iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new(name);
        counting_loop(&mut b, "f", "mixed.c", 12, iters);
        counting_loop(&mut b, "t", "mixed.c", 40, iters);
        let mut image = laser_machine::WorkloadImage::new(name, b.finish());
        let falsely = image.layout_mut().heap_alloc(64, 64).unwrap();
        let truly = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("f0", "fentry").with_reg(Reg(0), falsely));
        image.push_thread(ThreadSpec::new("f1", "fentry").with_reg(Reg(0), falsely + 8));
        image.push_thread(ThreadSpec::new("t0", "tentry").with_reg(Reg(0), truly));
        image.push_thread(ThreadSpec::new("t1", "tentry").with_reg(Reg(0), truly));
        image
    }

    #[test]
    fn a_pipelined_repair_session_stops_reading_once_attached() {
        let image = mixed_image("unawait", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();

        let mut session = Laser::builder()
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image);
        assert!(!session.is_pipelined(), "repair is enabled");
        while !session.repair_triggered() {
            assert_eq!(session.advance().unwrap(), SessionStatus::Running);
        }
        // Armed batches were read: the trigger fired off the detector's
        // aggregates. From here on nobody reads them, so no batch builds
        // them, and the session's copy goes stale while records keep flowing.
        let at_attach = session.aggs.clone();
        assert!(!at_attach.aggs.is_empty());
        let sampled_at_attach = session.driver.stats().records_sampled;
        while session.advance().unwrap() == SessionStatus::Running {}
        assert!(session.driver.stats().records_sampled > sampled_at_attach);
        assert_eq!(session.aggs, at_attach, "no batch was read");

        let piped = session.finish();
        let (a, b) = (
            inline.repair.as_ref().unwrap(),
            piped.repair.as_ref().unwrap(),
        );
        assert_eq!(a.triggered_at_cycle, b.triggered_at_cycle);
        assert_eq!(a.stats, b.stats);
        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.run.per_core_cycles, piped.run.per_core_cycles);
        assert_eq!(inline.report, piped.report);
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
        assert_eq!(inline.driver_stats, piped.driver_stats);
    }

    // ------------------------------------------------------------------
    // Coalesced hand-off
    // ------------------------------------------------------------------

    /// Detection-only at sav 1: every HITM a record, so a contended run
    /// sends many coalesced jobs. The odd per-record cost makes every
    /// batch charge leave a remainder.
    fn sav1() -> LaserConfig {
        LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only().with_sav(1)
        }
    }

    /// Everything a run produces that a hand-off could move.
    fn assert_same_outcome(inline: &LaserOutcome, piped: &LaserOutcome) {
        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.run.per_core_cycles, piped.run.per_core_cycles);
        assert_eq!(inline.run.stats, piped.run.stats);
        assert_eq!(inline.report, piped.report);
        assert_eq!(
            format!("{:?}", inline.report),
            format!("{:?}", piped.report)
        );
        assert_eq!(inline.detector_cycles, piped.detector_cycles);
        assert_eq!(inline.driver_stats, piped.driver_stats);
    }

    /// The pipelined session's worker end.
    fn worker(session: &LaserSession) -> &DetectorWorker {
        match &session.detector {
            DetectorStage::Worker(worker) => worker,
            DetectorStage::Inline(_) => panic!("session runs inline"),
        }
    }

    /// Run a pipelined `session` to the end and finish it, with the number
    /// of jobs its worker was sent, the one `finish` sends included.
    fn run_counting_jobs(mut session: LaserSession) -> (LaserOutcome, u64) {
        while session.advance().unwrap() == SessionStatus::Running {}
        let worker = worker(&session);
        let jobs = worker.sent + u64::from(!worker.pending.ends.is_empty());
        (session.finish(), jobs)
    }

    #[test]
    fn coalesced_pipelined_run_is_byte_identical_to_inline_over_many_jobs() {
        let image = contended_image("coalesce", 40_000);
        let build = |pipelined: bool| {
            Laser::builder()
                .config(sav1())
                .pipeline_config(PipelineConfig { enabled: pipelined })
                .build(&image)
        };

        let inline = build(false).run().unwrap();
        let (piped, jobs) = run_counting_jobs(build(true));
        assert_same_outcome(&inline, &piped);
        assert_eq!(
            piped.detector_cycles,
            piped.driver_stats.records_sampled * 37
        );
        let records = piped.driver_stats.records_sampled;
        assert!(jobs >= 8, "{jobs} jobs for {records} records");
        // A job goes only when the next batch would overflow it, so any two
        // consecutive jobs hold more than `JOB_RECORDS` records.
        assert!(jobs <= 2 * records / JOB_RECORDS as u64 + 1, "{jobs} jobs");
    }

    #[test]
    fn only_repair_keeps_a_pipelined_session_inline() {
        let image = contended_image("whopipes", 40_000);
        let repair = LaserConfig {
            enable_repair: true,
            ..sav1()
        };
        // Checked at every quantum, never tripped.
        let generous = CellBudget::steps(u64::MAX);
        let run = |config: &LaserConfig, pipelined: bool, budget: CellBudget| {
            let session = Laser::builder()
                .config(config.clone())
                .pipeline_config(PipelineConfig { enabled: pipelined })
                .budget(budget)
                .build(&image);
            (session.is_pipelined(), session.run().unwrap())
        };

        // Detection-only, budgeted or not: nothing reads the detector
        // mid-run, so the session pipelines.
        let (_, inline) = run(&sav1(), false, CellBudget::default());
        for budget in [CellBudget::default(), generous] {
            let (pipelined, piped) = run(&sav1(), true, budget);
            assert!(pipelined, "a detection session pipelines: {budget:?}");
            assert!(piped.stage_occupancy.is_some());
            assert_same_outcome(&inline, &piped);
        }

        // Repair enabled, budgeted or not: the armed trigger reads the
        // detector every quantum, so the session runs inline.
        let (_, inline) = run(&repair, false, CellBudget::default());
        assert!(inline.repair.is_some(), "repair attaches");
        for budget in [CellBudget::default(), generous] {
            let (pipelined, piped) = run(&repair, true, budget);
            assert!(!pipelined, "a repair session runs inline: {budget:?}");
            assert_eq!(piped.stage_occupancy, None);
            assert_eq!(
                inline.repair.as_ref().unwrap().triggered_at_cycle,
                piped.repair.as_ref().unwrap().triggered_at_cycle
            );
            assert_same_outcome(&inline, &piped);
        }
    }

    #[test]
    fn records_pending_at_a_stop_are_processed_by_finish() {
        let image = contended_image("pendfin", 40_000);

        // Unbudgeted: stop calling `advance` while the pending job holds
        // records the worker has not seen; `finish` sends them first.
        let mut piped = Laser::builder()
            .config(sav1())
            .pipeline_config(PipelineConfig::pipelined())
            .build(&image);
        let mut quanta = 0;
        while worker(&piped).sent == 0 || worker(&piped).pending.ends.is_empty() {
            assert_eq!(piped.advance().unwrap(), SessionStatus::Running);
            quanta += 1;
        }
        let mut inline = Laser::builder().config(sav1()).build(&image);
        for _ in 0..quanta {
            assert_eq!(inline.advance().unwrap(), SessionStatus::Running);
        }
        let (inline, piped) = (inline.finish(), piped.finish());
        assert_same_outcome(&inline, &piped);
        assert_eq!(
            piped.detector_cycles,
            piped.driver_stats.records_sampled * 37
        );

        // Budgeted: the stop at the fifth quantum leaves that quantum's
        // records staged in the driver, unread (and, pipelined, earlier ones
        // in the pending job); `finish` reads, processes and charges them
        // exactly once.
        let stopped = |pipelined: bool| {
            let mut session = Laser::builder()
                .config(sav1())
                .pipeline_config(PipelineConfig { enabled: pipelined })
                .budget(CellBudget::steps(4 * sav1().poll_interval_steps))
                .build(&image);
            assert_eq!(session.is_pipelined(), pipelined);
            assert_eq!(advance_to_stop(&mut session).0, 5);
            assert!(
                session.detector_cycles() < session.driver.stats().records_sampled * 37,
                "sampled records are still outstanding at the stop"
            );
            session.finish()
        };
        let (inline, piped) = (stopped(false), stopped(true));
        assert_same_outcome(&inline, &piped);
        assert!(piped.driver_stats.records_sampled > 0);
        assert_eq!(
            piped.detector_cycles,
            piped.driver_stats.records_sampled * 37,
            "every sampled record must be processed and charged exactly once"
        );
        assert_eq!(
            piped.run.stats.injected_overhead_cycles,
            piped.driver_stats.overhead_cycles + piped.detector_cycles
        );
    }

    #[test]
    fn a_contended_pass_sends_a_job_per_job_records() {
        // The benchmark's `contended_piped` pass: the six most contended
        // programs, detection-only at sav 1. Full size in release (as CI
        // runs it); a smaller scale keeps the debug run short.
        let scale = if cfg!(debug_assertions) { 2.0 } else { 14.0 };
        let opts = laser_workloads::BuildOptions::scaled(scale);
        let config = LaserConfig::detection_only().with_sav(1);
        let (mut jobs, mut records, mut quanta) = (0, 0, 0);
        let programs = [
            "dedup",
            "volrend",
            "linear_regression",
            "kmeans",
            "bodytrack",
            "histogram'",
        ];
        for name in programs {
            let spec = laser_workloads::find(name).unwrap();
            let image = spec.build(&opts);
            let build = |pipeline: PipelineConfig| {
                Laser::builder()
                    .config(config.clone())
                    .pipeline_config(pipeline)
                    .build(&image)
            };
            let inline = build(PipelineConfig::default()).run().unwrap();
            let (piped, piped_jobs) = run_counting_jobs(build(PipelineConfig::pipelined()));
            assert_same_outcome(&inline, &piped);
            jobs += piped_jobs;
            records += piped.driver_stats.records_sampled;
            quanta += piped.run.steps.div_ceil(config.poll_interval_steps);
        }
        eprintln!("scale {scale}: {records} records, {quanta} quanta, {jobs} jobs");
        assert!(jobs <= 2 * records / JOB_RECORDS as u64 + programs.len() as u64);
        assert!(3 * jobs < 2 * quanta, "{jobs} jobs for {quanta} quanta");
    }

    // ------------------------------------------------------------------
    // A dying detector worker
    // ------------------------------------------------------------------

    const WORKER_PANIC: &str = "deliberate detector worker panic";

    /// A pipelined detection-only session for `image` whose worker panics
    /// on its first job. `alive` is held by the worker thread for as long as
    /// it exists, so `Arc::strong_count(alive) == 1` means it is gone.
    fn session_with_dying_worker(image: &WorkloadImage, alive: &Arc<()>) -> LaserSession {
        with_worker_dying_on_job(
            1,
            pipelined(LaserConfig::detection_only(), image),
            image,
            alive,
        )
    }

    /// A pipelined session of `config` for `image`, unbudgeted.
    fn pipelined(config: LaserConfig, image: &WorkloadImage) -> LaserSession {
        Laser::builder()
            .config(config)
            .pipeline_config(PipelineConfig::pipelined())
            .build(image)
    }

    /// `session` (a pipelined session for `image`) with its worker replaced
    /// by one that processes its first `k - 1` jobs as usual and panics on
    /// job `k`. `alive` is held by the new worker thread as in
    /// [`session_with_dying_worker`].
    fn with_worker_dying_on_job(
        k: u64,
        mut session: LaserSession,
        image: &WorkloadImage,
        alive: &Arc<()>,
    ) -> LaserSession {
        assert!(
            session.is_pipelined(),
            "only a pipelined session has a worker"
        );
        let detector = Detector::new(&session.app.config, image.program(), image.memory_map());
        let held = Arc::clone(alive);
        let mut jobs = 0;
        let worker = DetectorWorker::spawn_with(detector, move |detector, job| {
            let _held = &held;
            jobs += 1;
            if jobs == k {
                std::panic::panic_any(WORKER_PANIC.to_string());
            }
            for batch in job.batches() {
                detector.process(batch);
            }
        })
        .unwrap();
        session.detector = DetectorStage::Worker(worker);
        session
    }

    #[test]
    fn a_dying_worker_fails_the_run_with_its_own_panic_and_is_joined() {
        // Detection-only: the closed job channel (or the join
        // at finish) gives the worker away.
        let image = contended_image("dying", 6000);
        let alive = Arc::new(());
        let session = session_with_dying_worker(&image, &alive);
        let payload = catch_unwind(AssertUnwindSafe(|| session.run()))
            .expect_err("the worker's panic must unwind run()");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), WORKER_PANIC);
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "the worker was joined before its panic was re-raised"
        );
    }

    #[test]
    fn a_worker_dying_on_a_later_job_surfaces_its_panic_on_a_send_and_is_joined() {
        // Coalesced: the first jobs are processed, the third
        // kills the worker, and the machine thread finds out when it next
        // hands over a job or waits for a buffer — long before the run ends.
        let image = contended_image("dieslater", 40_000);
        let alive = Arc::new(());
        let mut session = with_worker_dying_on_job(3, pipelined(sav1(), &image), &image, &alive);
        let mut quanta = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| loop {
            quanta += 1;
            if session.advance().unwrap() != SessionStatus::Running {
                break;
            }
        }))
        .expect_err("the worker's panic must unwind advance()");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), WORKER_PANIC);
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "the worker was joined before its panic was re-raised"
        );
        let inline = Laser::builder().config(sav1()).build(&image).run().unwrap();
        let quanta_in_run = inline.run.steps.div_ceil(sav1().poll_interval_steps);
        assert!(
            quanta < quanta_in_run / 2,
            "surfaced after {quanta} of {quanta_in_run} quanta"
        );
    }
}
