//! A self-contained, movable, observable LASER run.
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
//! [`Laser::builder`](crate::system::Laser::builder)), the single
//! construction path behind every legacy constructor:
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
//! monolithic loop this type was extracted from. Each quantum is reported to
//! the session's [`Observer`] as a stream of typed
//! [`LaserEvent`]s, and the observer can cancel
//! the run mid-flight by returning `ControlFlow::Break` (see
//! [`crate::observe`]).
//!
//! # Pipelined execution
//!
//! The paper's deployment has two parties: the PEBS interrupt handler (the
//! driver) runs *on the application's cores*, and the detector is a separate
//! user-space process. [`SessionBuilder::pipeline`] deploys the session the
//! same way, on **two threads**. The calling thread runs the application and
//! the driver — `run_quantum`, then [`Driver::ingest`] — exactly as an inline
//! session does; the one [`Detector`] lives on a `laser-detector` worker
//! thread and receives each quantum's sampled records through a bounded
//! double-buffered channel (`laser_pebs::channel`). Delivery is lossless: a
//! full channel blocks the producer, nothing is ever dropped.
//!
//! A batch is handed over in one of two ways:
//!
//! * **Un-awaited.** An unobserved session whose repair is off (or already
//!   attached) sends the batch and moves on. Detection of quantum `k`
//!   overlaps the execution of quantum `k + 1`, with no per-quantum
//!   round-trip.
//! * **Awaited.** While the session is observed or repair is armed, the
//!   machine thread needs the detector's per-line aggregates as of this
//!   batch — for the observer's `DetectionUpdate` and for the repair
//!   trigger — so the job asks for a reply and the machine thread waits for
//!   it. Once repair attaches on an unobserved session the batches go back
//!   to un-awaited.
//!
//! Either way the detector's per-record cost is configuration, not state, so
//! the machine is charged for a batch at the same point an inline run
//! charges it, and a pipelined run is **byte-identical** to its inline
//! equivalent — outcome and event stream alike. If the worker thread cannot
//! be spawned the session simply runs its detector inline.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laser_isa::program::Pc;
use laser_machine::machine::MachineError;
use laser_machine::{CoreId, HitmEvent, Machine, MachineConfig, RunStatus, WorkloadImage};
use laser_pebs::channel::{self, OverflowPolicy, SendOutcome};
use laser_pebs::driver::Driver;
use laser_pebs::imprecision::ImprecisionModel;
use laser_pebs::pmu::{Pmu, PmuConfig};
use laser_pebs::record::HitmRecord;

use crate::config::LaserConfig;
use crate::detect::{self, Detector, LineAggregates};
use crate::observe::{LaserEvent, NullObserver, Observer, StopReason};
use crate::repair::{RepairPlan, SsbHook};
use crate::system::{LaserError, LaserOutcome, RepairSummary};

/// What one call to [`LaserSession::advance`] left the session in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// The application has more work; call [`LaserSession::advance`] again.
    Running,
    /// The application halted; call [`LaserSession::finish`] for the outcome.
    Done,
    /// The session's [`Observer`] cancelled the run. The partial state is
    /// still inspectable, but there is no complete outcome to produce.
    Stopped(StopReason),
}

/// Depth of the detector worker's record channel, in batches: the classic
/// double buffer — one batch in flight at the detector, one staged behind it.
const CHANNEL_DEPTH: usize = 2;

/// How a session's detector is deployed (see the [module docs](self) on
/// pipelined execution). The default is inline.
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
    /// with the next quantum of application execution.
    pub enabled: bool,
}

impl PipelineConfig {
    /// The pipelined deployment: the detector on a worker thread behind a
    /// lossless double-buffered channel.
    pub fn pipelined() -> Self {
        PipelineConfig { enabled: true }
    }
}

/// Fluent construction of a [`LaserSession`]: LASER configuration, machine
/// configuration, an optional [`Observer`] and the pipeline deployment, in
/// any order, then [`SessionBuilder::build`].
///
/// ```no_run
/// use std::ops::ControlFlow;
/// use laser_core::{Laser, LaserConfig, LaserEvent};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// let session = Laser::builder()
///     .config(LaserConfig::default().with_seed(7))
///     .machine(laser_machine::MachineConfig::default())
///     .pipeline(true)
///     .observer(|event: &LaserEvent| {
///         if let LaserEvent::RepairAttached { at_cycle, .. } = event {
///             eprintln!("repair attached at cycle {at_cycle}");
///         }
///         ControlFlow::Continue(())
///     })
///     .build(&image());
/// ```
#[derive(Default)]
pub struct SessionBuilder {
    config: LaserConfig,
    machine: MachineConfig,
    observer: Option<Box<dyn Observer>>,
    pipeline: PipelineConfig,
}

impl fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("machine", &self.machine)
            .field("observer", &self.observer.is_some())
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

impl SessionBuilder {
    /// A builder with the default LASER and machine configurations and no
    /// observer. Equivalent to [`Laser::builder`](crate::system::Laser::builder).
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

    /// Run the detector on a worker thread, overlapped with application
    /// execution (default: off). Shorthand for
    /// [`SessionBuilder::pipeline_config`] with
    /// [`PipelineConfig::pipelined`]; the results are byte-identical either
    /// way, only the wall-clock changes.
    pub fn pipeline(mut self, enabled: bool) -> Self {
        self.pipeline.enabled = enabled;
        self
    }

    /// Set the pipeline deployment.
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Attach an [`Observer`] that receives the run's
    /// [`LaserEvent`] stream and may cancel the
    /// run. Without one, events go to a [`NullObserver`].
    pub fn observer(self, observer: impl Observer + 'static) -> Self {
        self.boxed_observer(Box::new(observer))
    }

    /// Like [`SessionBuilder::observer`], for an observer that is already
    /// boxed (e.g. one threaded through `dyn`-typed plumbing).
    pub fn boxed_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Construct the session for `image`. Pure setup: nothing runs until
    /// [`LaserSession::advance`] or [`LaserSession::run`] (a pipelined
    /// session's detector thread spawns here, but idles on an empty channel).
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
            observer,
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
        // A failed spawn has consumed its detector; both deployments produce
        // the same bytes, so the session falls back to a fresh inline one.
        let worker = if pipeline.enabled {
            DetectorWorker::spawn(new_detector()).ok()
        } else {
            None
        };
        let detector = match worker {
            Some(worker) => DetectorStage::Worker(worker),
            None => DetectorStage::Inline(Box::new(new_detector())),
        };

        LaserSession {
            driver: Driver::new(pmu, config.driver),
            detector,
            aggs: LineAggregates::default(),
            app: AppSide {
                config,
                machine,
                observed: observer.is_some(),
                observer: observer.unwrap_or_else(|| Box::new(NullObserver)),
                workload: image.name().to_string(),
                num_cores,
                max_steps,
                detector_cycles: 0,
                reported_dropped: 0,
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

/// One quantum's sampled records on their way to the detector worker.
struct DetectJob {
    records: Vec<HitmRecord>,
    /// Whether the machine thread is waiting for the detector's per-line
    /// aggregates as of this batch.
    reply: bool,
}

/// The detector worker's loop: consume batches in FIFO order until the
/// session closes the channel, then hand the detector (and the time spent on
/// it) back. `process` is [`Detector::process`] outside tests.
fn detector_worker(
    mut detector: Detector,
    jobs: channel::Receiver<DetectJob>,
    replies: mpsc::Sender<LineAggregates>,
    mut process: impl FnMut(&mut Detector, &[HitmRecord]),
) -> (Detector, Duration) {
    let mut busy = Duration::ZERO;
    while let Some(job) = jobs.recv() {
        #[expect(
            clippy::disallowed_methods,
            reason = "occupancy accounting only; never feeds back into simulated state"
        )]
        let start = Instant::now();
        process(&mut detector, &job.records);
        if job.reply {
            // A dead reply channel just means the session was dropped
            // mid-run; keep draining so the job channel closes cleanly.
            let _ = replies.send(detector.line_aggregates());
        }
        busy += start.elapsed();
    }
    (detector, busy)
}

/// The session's end of a detector that lives on the `laser-detector` thread.
struct DetectorWorker {
    jobs: channel::Sender<DetectJob>,
    replies: mpsc::Receiver<LineAggregates>,
    /// `None` once the thread has been joined.
    thread: Option<JoinHandle<(Detector, Duration)>>,
}

impl DetectorWorker {
    fn spawn(detector: Detector) -> std::io::Result<Self> {
        Self::spawn_with(detector, |detector, records| {
            detector.process(records);
        })
    }

    /// [`DetectorWorker::spawn`] with the per-batch step injected, so a test
    /// can make the worker die mid-run.
    fn spawn_with(
        detector: Detector,
        process: impl FnMut(&mut Detector, &[HitmRecord]) + Send + 'static,
    ) -> std::io::Result<Self> {
        let (jobs, jobs_rx) = channel::bounded(CHANNEL_DEPTH, OverflowPolicy::Backpressure);
        let (replies_tx, replies) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("laser-detector".into())
            .spawn(move || detector_worker(detector, jobs_rx, replies_tx, process))?;
        Ok(DetectorWorker {
            jobs,
            replies,
            thread: Some(thread),
        })
    }

    /// Hand one batch to the worker; when `reply` is set, wait for the
    /// detector's aggregates as of that batch. The worker holds its ends of
    /// both channels for as long as it runs, so a closed channel means it
    /// died mid-run: fail the session now, with the worker's own panic,
    /// instead of simulating the rest of the cell for nothing.
    fn process(&mut self, records: Vec<HitmRecord>, reply: bool) -> Option<LineAggregates> {
        if self.jobs.send(DetectJob { records, reply }) != SendOutcome::Sent {
            self.died();
        }
        if !reply {
            return None;
        }
        match self.replies.recv() {
            Ok(aggs) => Some(aggs),
            Err(mpsc::RecvError) => self.died(),
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

    /// Close the job channel so the worker drains its queue and exits, then
    /// join it and take back the detector and its busy time. A panic on the
    /// worker is re-raised here.
    fn join(self) -> (Detector, Duration) {
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
/// only in how a batch reaches it. Fixed at construction.
enum DetectorStage {
    Inline(Box<Detector>),
    Worker(DetectorWorker),
}

impl DetectorStage {
    /// Run one batch through the detector; with `reply`, return its
    /// per-line aggregates as of that batch.
    fn process(&mut self, records: Vec<HitmRecord>, reply: bool) -> Option<LineAggregates> {
        match self {
            DetectorStage::Inline(detector) => {
                detector.process(&records);
                reply.then(|| detector.line_aggregates())
            }
            DetectorStage::Worker(worker) => worker.process(records, reply),
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

/// The application half of a session — machine, observer, repair and
/// overhead accounting — which behaves the same wherever the detector lives.
struct AppSide {
    config: LaserConfig,
    machine: Machine,
    /// Whether an observer was attached at build time. Events are not even
    /// constructed when this is false, so unobserved runs (every legacy entry
    /// point) pay nothing for the event stream.
    observed: bool,
    observer: Box<dyn Observer>,
    workload: String,
    num_cores: usize,
    max_steps: u64,
    detector_cycles: u64,
    /// PMU drop count already reported through `RecordBatch` events.
    reported_dropped: u64,
    repair: Option<RepairSummary>,
    /// Wall time spent inside `run_quantum` (pipelined sessions only; inline
    /// runs skip the measurement entirely).
    machine_busy: Duration,
    /// Wall time spent inside `Driver::ingest`, likewise.
    driver_busy: Duration,
}

/// An in-flight LASER run: application, driver, detector, observer and
/// (optionally) repair, as one owned value.
pub struct LaserSession {
    app: AppSide,
    driver: Driver,
    detector: DetectorStage,
    /// The detector's per-line aggregates as of the last batch that asked
    /// for them: what the armed repair trigger evaluates between batches.
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
            .field("detector_cycles", &self.app.detector_cycles)
            .field("repair", &self.app.repair)
            .finish_non_exhaustive()
    }
}

impl AppSide {
    /// Send one event to the observer.
    fn emit(&mut self, event: LaserEvent) -> ControlFlow<StopReason> {
        self.observer.on_event(&event)
    }

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

    /// Report a processed batch of `n` records to the observer:
    /// `RecordBatch` (advancing the reported-drop watermark to
    /// `dropped_total`), then — while the run is live and `aggs` carries the
    /// detector's per-line aggregates as of this batch — `DetectionUpdate`.
    /// The final flush passes `None`: the report supersedes the live view.
    fn emit_batch(
        &mut self,
        n: usize,
        dropped_total: u64,
        aggs: Option<&LineAggregates>,
    ) -> ControlFlow<StopReason> {
        if !self.observed {
            return ControlFlow::Continue(());
        }
        let dropped = dropped_total - self.reported_dropped;
        self.reported_dropped = dropped_total;
        self.emit(LaserEvent::RecordBatch { n, dropped })?;
        let Some(aggs) = aggs else {
            return ControlFlow::Continue(());
        };
        let lines = detect::line_rates_from(aggs, self.machine.elapsed_benchmark_seconds());
        self.emit(LaserEvent::DetectionUpdate {
            lines,
            remote_hitm_share: self.machine.stats().remote_hitm_share(),
        })
    }

    /// Whether LASERREPAIR is enabled and has not attached yet.
    fn repair_armed(&self) -> bool {
        self.config.enable_repair && self.repair.is_none()
    }

    /// Evaluate the armed repair trigger against the detector's per-line
    /// `aggs`. It runs at every boundary, not only when a batch lands,
    /// because rates decay as elapsed time grows. Attaches the SSB
    /// instrumentation when the lines over the threshold yield a profitable
    /// plan, and reports it.
    fn evaluate_trigger(&mut self, aggs: &LineAggregates) -> ControlFlow<StopReason> {
        let elapsed = self.machine.elapsed_benchmark_seconds();
        let threshold = self.effective_repair_threshold();
        let pcs = detect::trigger_pcs_from(aggs, elapsed, threshold);
        match self.attach_repair_from_pcs(&pcs) {
            Some(attached) if self.observed => self.emit(attached),
            _ => ControlFlow::Continue(()),
        }
    }

    /// Attach the SSB instrumentation if `pcs` (the lines over the repair
    /// trigger threshold) yields a profitable plan. Returns the event to
    /// report on attachment.
    fn attach_repair_from_pcs(&mut self, pcs: &[Pc]) -> Option<LaserEvent> {
        if pcs.is_empty() {
            return None;
        }
        let plan = RepairPlan::analyze(
            self.machine.program(),
            pcs,
            self.config.min_stores_per_flush,
            self.config.max_plan_blocks,
        )?;
        if !plan.profitable {
            return None;
        }
        let hook = SsbHook::new(plan.clone(), self.num_cores);
        let event = LaserEvent::RepairAttached {
            at_cycle: self.machine.cycles(),
            instrumented_blocks: plan.instrumented_blocks.len(),
            flush_blocks: plan.flush_blocks.len(),
            ssb_stores: plan.ssb_stores.len(),
            estimated_stores_per_flush: plan.estimated_stores_per_flush,
        };
        self.repair = Some(RepairSummary {
            triggered_at_cycle: self.machine.cycles(),
            plan,
            stats: hook.stats(),
        });
        self.machine.attach_hook(Box::new(hook));
        Some(event)
    }
}

impl LaserSession {
    /// Set up a run of `image` under LASER on a machine with `machine_config`.
    ///
    /// Legacy entry point: delegates to [`SessionBuilder`], which also takes
    /// an [`Observer`].
    pub fn new(config: LaserConfig, image: &WorkloadImage, machine_config: MachineConfig) -> Self {
        SessionBuilder::new()
            .config(config)
            .machine(machine_config)
            .build(image)
    }

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

    /// Whether the detector runs pipelined on a worker thread.
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
    /// decision. The quantum is reported to the session's [`Observer`] as
    /// [`LaserEvent`]s; if the observer breaks, the quantum's remaining
    /// events are skipped and the session reports [`SessionStatus::Stopped`].
    /// Every event is emitted *after* the work it describes, so a stopped
    /// session is always in a consistent state (a later
    /// [`LaserSession::finish`] never undercounts).
    ///
    /// In a pipelined session the detector consumes the batch on its own
    /// thread; the event order, payloads and machine charging are identical
    /// to an inline run (see the [module docs](self)).
    ///
    /// # Errors
    /// Returns an error if the machine exhausts its step budget.
    pub fn advance(&mut self) -> Result<SessionStatus, LaserError> {
        let timed = self.is_pipelined();
        let app = &mut self.app;
        let steps_before = app.machine.steps();
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
        // Capture the quantum event *before* the driver charges interrupt and
        // copy overhead.
        let quantum_event = app.observed.then(|| LaserEvent::QuantumCompleted {
            steps: app.machine.steps() - steps_before,
            cycles: app.machine.cycles(),
        });

        if let ControlFlow::Break(reason) = self.settle_boundary(quantum.events, quantum_event) {
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
    /// thread, hand the sampled records to the detector, report the boundary
    /// to the observer, and evaluate the armed repair trigger.
    fn settle_boundary(
        &mut self,
        events: Vec<HitmEvent>,
        quantum_event: Option<LaserEvent>,
    ) -> ControlFlow<StopReason> {
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
        if let Some(event) = quantum_event {
            app.emit(event)?;
        }
        let records = self.driver.read_records();
        if !records.is_empty() {
            let n = records.len();
            // Only an observer or an armed trigger reads the aggregates; a
            // worker is otherwise left to overlap with the next quantum.
            let reply = app.observed || app.repair_armed();
            if let Some(aggs) = self.detector.process(records, reply) {
                self.aggs = aggs;
            }
            app.charge_detector_batch(n);
            let dropped_total = self.driver.stats().events_dropped;
            app.emit_batch(n, dropped_total, Some(&self.aggs))?;
        }
        if app.repair_armed() {
            app.evaluate_trigger(&self.aggs)?;
        }
        ControlFlow::Continue(())
    }

    /// Drive the session to completion.
    ///
    /// # Errors
    /// Returns [`LaserError::Machine`] if the machine exhausts its step
    /// budget, and [`LaserError::Stopped`] if the session's [`Observer`]
    /// cancelled the run.
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
    /// session first joins its worker, which drains every streamed batch
    /// before handing the detector back, so the final flush (and the report)
    /// sees them all.
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
            let _ = app.emit_batch(records.len(), driver.stats().events_dropped, None);
        }

        if let Some(summary) = app.repair.as_mut() {
            // The hook owns its statistics; read them back out of the machine.
            if let Some(ssb) = SsbHook::attached_to(&app.machine) {
                summary.stats = ssb.stats();
            }
        }

        if app.observed {
            let finished = LaserEvent::Finished {
                steps: app.machine.steps(),
                cycles: app.machine.cycles(),
            };
            let _ = app.emit(finished);
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
    use crate::observe::{BudgetObserver, CellBudget, EventLog};
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

    /// The stream accounting invariant: every sampled record is reported in
    /// exactly one `RecordBatch` — whether its events were emitted at a
    /// boundary, deferred to the wind-down or part of the final flush — and
    /// `Finished` closes the stream.
    fn assert_stream_accounts_for_every_record(events: &[LaserEvent], outcome: &LaserOutcome) {
        let batched: u64 = events
            .iter()
            .filter_map(|e| match e {
                LaserEvent::RecordBatch { n, .. } => Some(*n as u64),
                _ => None,
            })
            .sum();
        assert_eq!(batched, outcome.driver_stats.records_sampled);
        assert!(matches!(events.last(), Some(LaserEvent::Finished { .. })));
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

        let config = LaserConfig::default();
        let inline = LaserSession::new(config.clone(), &image, MachineConfig::default())
            .run()
            .unwrap();

        let session = LaserSession::new(config, &image, MachineConfig::default());
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

    // Builder/legacy-constructor outcome equivalence is pinned by the broader
    // integration test in `tests/end_to_end.rs`, which covers all four entry
    // points under both configurations on a real workload.

    #[test]
    fn stopped_session_can_still_finish_without_undercounting() {
        // An observer that breaks on the first RecordBatch: the batch must
        // already be processed and charged when the stop surfaces, so a
        // subsequent finish() yields an outcome whose detector accounting
        // still balances.
        let image = contended_image("stopfin", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let mut session = Laser::builder()
            .config(config)
            .observer(|event: &LaserEvent| {
                if let LaserEvent::RecordBatch { .. } = event {
                    return ControlFlow::Break(StopReason::Cancelled("first batch".into()));
                }
                ControlFlow::Continue(())
            })
            .build(&image);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => panic!("observer should stop before completion"),
                SessionStatus::Stopped(reason) => {
                    assert_eq!(reason, StopReason::Cancelled("first batch".into()));
                    break;
                }
            }
        }
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
    fn observer_stream_narrates_the_run_and_does_not_perturb_it() {
        let image = contended_image("events", 6000);
        let baseline = Laser::builder().build(&image).run().unwrap();

        let log = EventLog::new();
        let observed = Laser::builder()
            .observer(log.clone())
            .build(&image)
            .run()
            .unwrap();
        // Observation is read-only: the outcome is identical.
        assert_eq!(baseline.cycles(), observed.cycles());
        assert_eq!(baseline.report, observed.report);

        let events = log.events();
        assert_stream_accounts_for_every_record(&events, &observed);
        let total_steps: u64 = events
            .iter()
            .filter_map(|e| match e {
                LaserEvent::QuantumCompleted { steps, .. } => Some(*steps),
                _ => None,
            })
            .sum();
        assert_eq!(total_steps, observed.run.steps);
        // This workload contends: the detector's live view reported it before
        // the run ended, and repair attached exactly once.
        assert!(events.iter().any(|e| matches!(
            e,
            LaserEvent::DetectionUpdate { lines, .. } if !lines.is_empty()
        )));
        assert!(observed.repair.is_some(), "repair should trigger");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, LaserEvent::RepairAttached { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn observer_break_cancels_the_run_mid_flight() {
        let image = contended_image("cancel", 50_000);
        let mut quanta = 0u32;
        let err = Laser::builder()
            .observer(move |event: &LaserEvent| {
                if let LaserEvent::QuantumCompleted { .. } = event {
                    quanta += 1;
                    if quanta >= 2 {
                        return ControlFlow::Break(StopReason::Cancelled("test".into()));
                    }
                }
                ControlFlow::Continue(())
            })
            .build(&image)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            LaserError::Stopped(StopReason::Cancelled("test".into()))
        );
    }

    #[test]
    fn budget_observer_stops_a_session_at_its_step_budget() {
        let image = contended_image("budget", 50_000);
        let config = LaserConfig::detection_only();
        let limit = config.poll_interval_steps * 3;
        let err = Laser::builder()
            .config(config)
            .observer(BudgetObserver::new(CellBudget::steps(limit)))
            .build(&image)
            .run()
            .unwrap_err();
        match err {
            LaserError::Stopped(StopReason::StepBudget { limit: l, used }) => {
                assert_eq!(l, limit);
                assert!(used > limit);
            }
            other => panic!("expected a step-budget stop, got {other:?}"),
        }
    }

    #[test]
    fn advance_reports_stopped_and_leaves_state_inspectable() {
        let image = contended_image("stopped", 50_000);
        let mut session = Laser::builder()
            .observer(|_: &LaserEvent| {
                ControlFlow::Break(StopReason::Cancelled("immediately".into()))
            })
            .build(&image);
        let status = session.advance().unwrap();
        assert_eq!(
            status,
            SessionStatus::Stopped(StopReason::Cancelled("immediately".into()))
        );
        // The partial run is still inspectable.
        assert!(session.machine().steps() > 0);
        assert!(!session.repair_triggered());
    }

    #[test]
    fn config_topology_deploys_the_machine_on_the_preset() {
        use laser_machine::{ThreadPlacement, TopologySpec};
        // Two threads false-sharing one line, pinned to different sockets:
        // the session must surface the cross-socket share in its live
        // DetectionUpdate events and in the final report.
        let mut image = contended_image("xsock", 4000);
        image.set_thread_placement(ThreadPlacement::RoundRobin);
        let log = EventLog::new();
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only().with_topology(TopologySpec::DualSocket))
            .observer(log.clone())
            .build(&image);
        assert_eq!(session.machine().num_cores(), 8);
        assert_eq!(session.machine().topology().num_sockets(), 2);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => break,
                SessionStatus::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        let outcome = session.finish();
        let stats = &outcome.run.stats;
        assert!(stats.hitm_remote > 0, "threads sit on different sockets");
        assert_eq!(stats.hitm_remote, stats.hitm_events);
        assert!((outcome.report.remote_hitm_share - 1.0).abs() < 1e-12);
        assert!(log.events().iter().any(|e| matches!(
            e,
            LaserEvent::DetectionUpdate { remote_hitm_share, .. } if *remote_hitm_share > 0.99
        )));
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
            .pipeline(true)
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
        // With repair enabled the pipeline runs armed quanta in lock-step;
        // the attach point, plan and final outcome must match inline exactly.
        let image = contended_image("piperep", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();
        let piped = Laser::builder().pipeline(true).build(&image).run().unwrap();

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
    fn pipelined_event_stream_is_byte_identical_to_inline() {
        for config in [LaserConfig::detection_only(), LaserConfig::default()] {
            let image = contended_image("pipevents", 6000);
            let inline_log = EventLog::new();
            let inline = Laser::builder()
                .config(config.clone())
                .observer(inline_log.clone())
                .build(&image)
                .run()
                .unwrap();
            let piped_log = EventLog::new();
            let piped = Laser::builder()
                .config(config.clone())
                .pipeline(true)
                .observer(piped_log.clone())
                .build(&image)
                .run()
                .unwrap();
            assert_eq!(inline.cycles(), piped.cycles());
            let (ie, pe) = (inline_log.events(), piped_log.events());
            assert!(!ie.is_empty());
            assert_eq!(ie, pe, "repair={}", config.enable_repair);
            assert_eq!(format!("{ie:?}"), format!("{pe:?}"));
            assert_stream_accounts_for_every_record(&pe, &piped);
        }
    }

    #[test]
    fn pipelined_session_exposes_stage_and_reclaims_detector() {
        let image = contended_image("reclaim", 1500);
        let mut session = Laser::builder()
            .config(LaserConfig::detection_only())
            .pipeline(true)
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
        let image = contended_image("pipbudget", 50_000);
        let config = LaserConfig::detection_only();
        let limit = config.poll_interval_steps * 3;
        let run = |pipelined: bool| {
            Laser::builder()
                .config(config.clone())
                .pipeline(pipelined)
                .observer(BudgetObserver::new(CellBudget::steps(limit)))
                .build(&image)
                .run()
                .unwrap_err()
        };
        // Step budgets trip on QuantumCompleted events, which pipelining
        // emits at the same stream position with the same payloads — the
        // stop reason is identical, not merely similar.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stopped_pipelined_session_still_finishes_without_undercounting() {
        // The stop surfaces after the batch went to the worker; finish()
        // must join it and charge every sampled record exactly once.
        let image = contended_image("pipstop", 6000);
        let config = LaserConfig {
            detector_cycles_per_record: 37,
            ..LaserConfig::detection_only()
        };
        let mut session = Laser::builder()
            .config(config)
            .pipeline(true)
            .observer(|event: &LaserEvent| {
                if let LaserEvent::RecordBatch { .. } = event {
                    return ControlFlow::Break(StopReason::Cancelled("first batch".into()));
                }
                ControlFlow::Continue(())
            })
            .build(&image);
        loop {
            match session.advance().unwrap() {
                SessionStatus::Running => {}
                SessionStatus::Done => panic!("observer should stop before completion"),
                SessionStatus::Stopped(reason) => {
                    assert_eq!(reason, StopReason::Cancelled("first batch".into()));
                    break;
                }
            }
        }
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
            .pipeline(true)
            .build(&image);
        for _ in 0..3 {
            assert_eq!(session.advance().unwrap(), SessionStatus::Running);
        }
        // Dropping the session drops the job sender; the worker drains and
        // exits rather than leaking a parked thread. (A deadlock here would
        // hang the test suite, which is the assertion.)
        drop(session);
    }

    #[test]
    fn awaited_pipelined_repair_session_streams_and_attaches_like_inline() {
        // Observed *and* repair-armed: every batch is awaited, so the
        // observer's rates and the trigger both read the worker's reply.
        let image = contended_image("awaited", 6000);
        let run = |pipelined: bool| {
            let log = EventLog::new();
            let outcome = Laser::builder()
                .pipeline(pipelined)
                .observer(log.clone())
                .build(&image)
                .run()
                .unwrap();
            (outcome, log.events())
        };
        let (inline, inline_events) = run(false);
        let (piped, piped_events) = run(true);
        assert_eq!(inline_events, piped_events);
        let attached_at = |events: &[LaserEvent]| {
            let at: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    LaserEvent::RepairAttached { at_cycle, .. } => Some(*at_cycle),
                    _ => None,
                })
                .collect();
            assert_eq!(at.len(), 1, "repair attaches exactly once");
            at[0]
        };
        let at = attached_at(&piped_events);
        assert_eq!(at, attached_at(&inline_events));
        assert_eq!(at, piped.repair.as_ref().unwrap().triggered_at_cycle);
        assert_eq!(at, inline.repair.as_ref().unwrap().triggered_at_cycle);
        assert_eq!(inline.cycles(), piped.cycles());
        assert_eq!(inline.report, piped.report);
        assert_stream_accounts_for_every_record(&piped_events, &piped);
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
    fn unobserved_pipelined_repair_session_stops_awaiting_once_attached() {
        let image = mixed_image("unawait", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();

        let mut session = Laser::builder().pipeline(true).build(&image);
        while !session.repair_triggered() {
            assert_eq!(session.advance().unwrap(), SessionStatus::Running);
        }
        // Armed batches were awaited: the trigger fired off the worker's
        // aggregates. From here on nobody reads them, so no batch asks, and
        // the session's copy goes stale while records keep flowing.
        let at_attach = session.aggs.clone();
        assert!(!at_attach.aggs.is_empty());
        let sampled_at_attach = session.driver.stats().records_sampled;
        while session.advance().unwrap() == SessionStatus::Running {}
        assert!(session.driver.stats().records_sampled > sampled_at_attach);
        assert_eq!(session.aggs, at_attach, "no reply was asked for");

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
    // A dying detector worker
    // ------------------------------------------------------------------

    const WORKER_PANIC: &str = "deliberate detector worker panic";

    /// A pipelined session for `image` whose worker panics on its first
    /// batch. `alive` is held by the worker thread for as long as it exists,
    /// so `Arc::strong_count(alive) == 1` means it is gone.
    fn session_with_dying_worker(
        config: LaserConfig,
        image: &WorkloadImage,
        alive: &Arc<()>,
    ) -> LaserSession {
        let detector = Detector::new(&config, image.program(), image.memory_map());
        let mut session = Laser::builder().config(config).pipeline(true).build(image);
        let held = Arc::clone(alive);
        let worker = DetectorWorker::spawn_with(detector, move |_, _| {
            let _held = &held;
            std::panic::panic_any(WORKER_PANIC.to_string());
        })
        .unwrap();
        session.detector = DetectorStage::Worker(worker);
        session
    }

    #[test]
    fn a_dying_worker_fails_the_run_with_its_own_panic_and_is_joined() {
        // Detection-only and unobserved: batches are un-awaited, and the
        // closed job channel (or the join at finish) gives the worker away.
        // Repair-armed: the awaited reply never comes.
        for config in [LaserConfig::detection_only(), LaserConfig::default()] {
            let image = contended_image("dying", 6000);
            let alive = Arc::new(());
            let session = session_with_dying_worker(config, &image, &alive);
            let payload = catch_unwind(AssertUnwindSafe(|| session.run()))
                .expect_err("the worker's panic must unwind run()");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), WORKER_PANIC);
            assert_eq!(
                Arc::strong_count(&alive),
                1,
                "the worker was joined before its panic was re-raised"
            );
        }
    }

    /// LASERDETECT through `laser-bench`, except that the session of one
    /// workload's cell gets a dying worker.
    struct DyingWorkerTool {
        inner: Box<dyn laser_bench::Tool>,
        victim: &'static str,
    }

    impl laser_bench::Tool for DyingWorkerTool {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn run(
            &self,
            spec: &laser_workloads::WorkloadSpec,
            cell: &laser_bench::CellConfig,
        ) -> Result<laser_bench::ToolRun, laser_bench::ToolFailure> {
            if spec.name != self.victim {
                return self.inner.run(spec, cell);
            }
            let image = spec.build(&cell.adapted_opts());
            let session =
                session_with_dying_worker(LaserConfig::detection_only(), &image, &Arc::new(()));
            let outcome = session.run();
            unreachable!("the worker's panic unwinds run(): {outcome:?}")
        }
    }

    #[test]
    fn a_dying_worker_costs_a_campaign_one_cell() {
        // `laser_bench` links the non-test build of this crate, so its
        // `PipelineConfig` is named through it.
        let campaign = |tool: Box<dyn laser_bench::Tool>| {
            laser_bench::Campaign::new(laser_workloads::registry(), vec![tool])
                .with_workload_names(&["histogram'", "swaptions", "kmeans"])
                .unwrap()
                .with_options(laser_workloads::BuildOptions::scaled(1.0))
                .with_pipeline(laser_bench::PipelineConfig::pipelined())
                .with_threads(2)
                .run()
        };
        let detect = || laser_bench::ToolSpec::LaserDetect.build();
        let clean = campaign(detect());
        let faulty = campaign(Box::new(DyingWorkerTool {
            inner: detect(),
            victim: "histogram'",
        }));
        assert_eq!(clean.cells.len(), 3);
        assert!(clean.cells.iter().all(|c| c.outcome.is_ok()));
        for (clean, faulty) in clean.cells.iter().zip(&faulty.cells) {
            if clean.workload == "histogram'" {
                assert_eq!(
                    faulty.outcome,
                    Err(laser_bench::ToolFailure::Panicked {
                        message: WORKER_PANIC.to_string()
                    })
                );
            } else {
                assert_eq!(clean, faulty);
            }
        }
    }
}
