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
//! The paper's central performance claim is that detection runs
//! *concurrently* with the application: the PMU/driver/detector work rides
//! alongside execution instead of interrupting it.
//! [`SessionBuilder::pipeline`] deploys the session as a **three-stage
//! pipeline** — machine | driver | detector shards. The machine thread does
//! nothing but `run_quantum` and enqueue each quantum's raw HITM batch; a
//! dedicated driver-stage thread services the PMU (sampling, imprecision,
//! record copy) and routes the sampled records over the detector shard
//! workers; each shard consumes its sub-batches through a bounded
//! double-buffered channel (`laser_pebs::channel`). Delivery is lossless:
//! a full channel blocks its producer, nothing is ever dropped.
//!
//! The driver's overhead charge-back is latency-tolerant: the driver stage
//! computes each quantum's interrupt/copy charge as a pure function of its
//! batch (a [`laser_pebs::ChargeLedger`]) and sends it back on a second
//! channel, and the machine applies pending ledgers at fixed quantum
//! boundaries — a bounded-lag credit scheme controlled by
//! [`PipelineConfig::driver_lag_quanta`]:
//!
//! * **lag = 0** (the default): the ledger for quantum `k` is applied at
//!   boundary `k`, before quantum `k + 1` runs — the same machine point an
//!   inline run charges at. Charges within a ledger commute (the scheduler's
//!   pick is a pure function of the final per-core clocks), so a lag=0
//!   pipelined run is **byte-identical** to its inline equivalent — outcome
//!   and event stream alike — while routing, record copy and detection still
//!   overlap off the machine thread.
//! * **lag ≥ 1**: the ledger for quantum `k` is applied at boundary
//!   `k + lag`, so the machine runs quantum `k + 1` while the driver stage
//!   is still servicing quantum `k`. Deferring charges moves the cores'
//!   clocks relative to an inline run, which perturbs the interleaving and
//!   hence the HITM stream — lag ≥ 1 is **deterministic** (byte-for-byte
//!   repeatable for a fixed configuration) but *not* inline-identical.
//!
//! The repair decision is pre-armed off the ledger: while the session is
//! observed or repair is armed, the driver stage mirrors the full record
//! stream through its own [`Detector`] and ships the per-line aggregates
//! inside each ledger, so the machine evaluates the trigger (and the
//! observer's `DetectionUpdate` rates) straight from the ledger — armed
//! quanta no longer round-trip to the shard workers.
//!
//! The one semantic difference at lag = 0 is cancellation latency: deferred
//! `RecordBatch`/`DetectionUpdate` events are delivered at the boundary
//! where their ledger settles, so a `Break` returned against them stops the
//! session at that boundary — the same boundary as inline, with the same
//! stream bytes.
//!
//! # Sharded detection
//!
//! On large multi-socket parts a single detector worker becomes the
//! bottleneck exactly where the paper's always-on claim matters most.
//! [`PipelineConfig::with_shards`] splits the pipelined detector stage into
//! N workers, each fed through its own bounded `laser_pebs::channel` and
//! each holding its own [`Detector`]. Every batch the driver stage samples
//! is routed across the shards by a hash of each record's cache line, so all
//! records for one line — the unit of every per-line aggregate and of the
//! cache-line model's state — land in the same shard. Shard states stay
//! pairwise disjoint, and merging them reconstructs exactly the state one
//! inline detector would hold: a sharded run is **byte-identical** to the
//! inline and single-worker runs for every shard count.
//!
//! Reports never expose the sharding: live rates and trigger decisions come
//! from the driver stage's mirror detector (which sees the full record
//! stream in driver order, exactly as an inline detector would), and at
//! `finish` the shard detectors are folded back into one
//! ([`Detector::absorb`]) before the final flush and report. Ledgers settle
//! in quantum order, so the event stream, too, is independent of the shard
//! count.

use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laser_isa::program::Pc;
use laser_machine::machine::MachineError;
use laser_machine::{CoreId, HitmEvent, Machine, MachineConfig, RunStatus, WorkloadImage};
use laser_pebs::channel::{self, OverflowPolicy, SendOutcome};
use laser_pebs::driver::{ChargeLedger, Driver};
use laser_pebs::imprecision::ImprecisionModel;
use laser_pebs::pmu::{Pmu, PmuConfig};
use laser_pebs::record::HitmRecord;

use crate::config::LaserConfig;
use crate::detect::{self, Detector, LineAgg};
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

/// Depth of each detector shard's record channel, in batches: the classic
/// double buffer — one batch in flight at the detector, one staged behind it.
/// Also the floor of the driver stage's batch channel, which deepens with lag.
const CHANNEL_DEPTH: usize = 2;

/// How a session's detector stage is deployed (see the
/// [module docs](self) on pipelined execution and sharded detection).
///
/// A worked sharded session — four detector shards, byte-identical to the
/// same run inline:
///
/// ```no_run
/// use laser_core::{Laser, LaserConfig, PipelineConfig};
/// # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
///
/// let sharded = Laser::builder()
///     .config(LaserConfig::detection_only())
///     .pipeline_config(PipelineConfig::pipelined().with_shards(4))
///     .build(&image())
///     .run()
///     .unwrap();
///
/// let inline = Laser::builder()
///     .config(LaserConfig::detection_only())
///     .build(&image())
///     .run()
///     .unwrap();
/// assert_eq!(sharded.report, inline.report);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Run the detector stage on worker threads, overlapping record
    /// processing with the next quantum of application execution.
    pub enabled: bool,
    /// Number of detector worker shards (clamped to at least 1). Each shard
    /// is its own thread with its own channel and [`Detector`].
    pub shards: usize,
    /// How many quantum boundaries the driver stage's charge ledger may lag
    /// behind the batch it accounts for (the bounded-lag credit scheme of
    /// the [module docs](self)). At the default of 0 the machine blocks on
    /// each quantum's ledger before running the next quantum, and the run is
    /// byte-identical to inline; at lag ≥ 1 the machine overlaps execution
    /// with the driver stage — deterministic, but not inline-identical.
    pub driver_lag_quanta: usize,
}

impl Default for PipelineConfig {
    /// Pipelining off; one shard; charge-back lag 0 (byte-identical to
    /// inline).
    fn default() -> Self {
        PipelineConfig {
            enabled: false,
            shards: 1,
            driver_lag_quanta: 0,
        }
    }
}

impl PipelineConfig {
    /// The standard pipelined deployment: worker-thread driver and detector
    /// stages behind lossless double-buffered channels.
    pub fn pipelined() -> Self {
        PipelineConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Set the detector shard count, clamped to at least 1 (builder-style).
    /// Output is byte-identical across shard counts.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the charge-back lag in quanta (builder-style). 0 (the default)
    /// keeps the run byte-identical to inline; lag ≥ 1 overlaps the machine
    /// and driver stages, deterministic but not inline-identical (see the
    /// [module docs](self)).
    pub fn with_driver_lag(mut self, lag: usize) -> Self {
        self.driver_lag_quanta = lag;
        self
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

    /// Run the driver and detector stages on worker threads, overlapped with
    /// application execution (default: off). Shorthand for
    /// [`SessionBuilder::pipeline_config`] with
    /// [`PipelineConfig::pipelined`]; the results are byte-identical either
    /// way, only the wall-clock changes.
    pub fn pipeline(mut self, enabled: bool) -> Self {
        self.pipeline.enabled = enabled;
        self
    }

    /// Set the full pipeline deployment (shard count, charge-back lag).
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
    /// session's worker threads spawn here, but idle on empty channels).
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
        let driver = Driver::new(pmu, config.driver);
        let observed = observer.is_some();
        let new_detector = || Detector::new(&config, program, image.memory_map());
        let stage = if pipeline.enabled {
            let detectors = (0..pipeline.shards.max(1))
                .map(|_| new_detector())
                .collect();
            // The mirror detector feeds the machine-side repair trigger and
            // the observer's DetectionUpdate rates without a shard
            // round-trip; it is only carried while someone needs its
            // aggregates.
            let mirror = (observed || config.enable_repair).then(new_detector);
            let lag = pipeline.driver_lag_quanta;
            Stage::Piped(PipeStage::spawn(driver, mirror, detectors, lag, num_cores))
        } else {
            Stage::Inline {
                driver,
                detector: new_detector(),
            }
        };

        LaserSession {
            app: AppSide {
                config,
                machine,
                observed,
                observer: observer.unwrap_or_else(|| Box::new(NullObserver)),
                workload: image.name().to_string(),
                num_cores,
                max_steps,
                detector_cycles: 0,
                reported_dropped: 0,
                repair: None,
                machine_busy: Duration::ZERO,
            },
            stage,
        }
    }
}

/// Cumulative busy time of each stage of a pipelined session, measured on
/// the stage threads themselves. Only meaningful relative to the run's wall
/// clock: `busy / wall` is the stage's occupancy, and the largest fraction
/// names the pipeline's bottleneck. `detector_busy` is the busiest shard's
/// time (the bottleneck shard), not the sum over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Time the machine thread spent inside `run_quantum`.
    pub machine_busy: Duration,
    /// Time the driver-stage thread spent servicing batches (PMU sampling,
    /// record copy, mirror detection, routing).
    pub driver_busy: Duration,
    /// Time the busiest detector shard spent processing records.
    pub detector_busy: Duration,
}

/// A detector shard's worker loop: consume routed sub-batches in FIFO order
/// until the channel closes, then hand the detector (and the shard's busy
/// time) back to the session.
fn detector_worker(
    mut detector: Detector,
    jobs: channel::Receiver<Vec<HitmRecord>>,
) -> (Detector, Duration) {
    let mut busy = Duration::ZERO;
    while let Some(records) = jobs.recv() {
        let start = Instant::now(); // lint:allow(wall-clock) — occupancy accounting only; never feeds back into simulated state
        detector.process(&records);
        busy += start.elapsed();
    }
    (detector, busy)
}

/// A unit of work for the driver stage.
enum DriverJob {
    /// One quantum's raw HITM batch, exactly as `run_quantum` yielded it.
    Batch(Vec<HitmEvent>),
    /// Repair attached on the machine thread; an unobserved session no
    /// longer needs the mirror detector's aggregates, so retire it.
    RepairAttached,
    /// End of run: flush the PEBS buffers and reply with the final records.
    Finish,
}

/// What the driver stage sends back for each job, on the second channel.
/// Everything the machine needs at the quantum boundary rides in here, so a
/// boundary is a single `recv` — no per-shard round-trips.
struct QuantumLedger {
    /// The batch's interrupt/copy overhead, computed as a pure function of
    /// the batch by `Driver::ingest_deferred`.
    charges: ChargeLedger,
    /// Sampled records delivered to the detector shards, priced on the
    /// machine at the inline per-record cost.
    records: usize,
    /// Cumulative `DriverStats::events_dropped` as of this batch, for the
    /// observer's `RecordBatch` drop watermark.
    events_dropped: u64,
    /// The mirror detector's per-line aggregates after this batch, when the
    /// mirror is live (observed or repair armed).
    aggs: Option<Arc<Vec<LineAgg>>>,
    /// The final flush's records (the reply to [`DriverJob::Finish`] only).
    flushed: Vec<HitmRecord>,
}

/// The driver stage: owns the [`Driver`] (PMU + imprecision + overhead
/// accounting), the optional mirror [`Detector`], and the shard job senders.
/// Runs on its own thread; for each batch it computes the charge ledger,
/// sends it back to the machine first, then dispatches the routed sub-batches
/// to the shards (so the machine is never blocked on shard backpressure).
struct DriverStageWorker {
    driver: Driver,
    mirror: Option<Detector>,
    shard_jobs: Vec<channel::Sender<Vec<HitmRecord>>>,
    num_cores: usize,
}

impl DriverStageWorker {
    /// Split a batch into one (possibly empty) sub-batch per shard,
    /// preserving the driver's delivery order within each shard. Routing
    /// keys on the cache line — a pure function of the record — so a line's
    /// whole record sequence stays in one shard.
    fn route(&self, records: Vec<HitmRecord>) -> Vec<Vec<HitmRecord>> {
        let shards = self.shard_jobs.len();
        if shards == 1 {
            return vec![records];
        }
        let mut parts: Vec<Vec<HitmRecord>> = (0..shards).map(|_| Vec::new()).collect();
        for r in records {
            // Fibonacci hashing over the line address: cheap, stable across
            // platforms, and spreads consecutive lines across shards.
            let hash = (r.data_addr >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            parts[hash as usize % shards].push(r);
        }
        parts
    }

    /// The stage's worker loop: consume jobs in FIFO order until the channel
    /// closes, then hand the driver (and the stage's busy time) back.
    fn run(
        mut self,
        jobs: channel::Receiver<DriverJob>,
        ledgers: mpsc::Sender<QuantumLedger>,
    ) -> (Driver, Duration) {
        let mut busy = Duration::ZERO;
        while let Some(job) = jobs.recv() {
            let start = Instant::now(); // lint:allow(wall-clock) — occupancy accounting only; never feeds back into simulated state
            match job {
                DriverJob::Batch(events) => {
                    let charges = self.driver.ingest_deferred(events, self.num_cores);
                    let records = self.driver.read_records();
                    // The mirror sees the full batch in driver order —
                    // exactly what an inline detector would see — so its
                    // aggregates are the inline aggregates.
                    let aggs = self.mirror.as_mut().map(|mirror| {
                        mirror.process(&records);
                        Arc::new(mirror.line_aggregates())
                    });
                    // Ledger first: the machine can settle the boundary while
                    // this stage is still handing sub-batches to the shards.
                    // A dead ledger channel just means the session was
                    // dropped mid-run; keep draining so the jobs channel
                    // closes cleanly.
                    let _ = ledgers.send(QuantumLedger {
                        charges,
                        records: records.len(),
                        events_dropped: self.driver.stats().events_dropped,
                        aggs,
                        flushed: Vec::new(),
                    });
                    for (shard, part) in self.route(records).into_iter().enumerate() {
                        if !part.is_empty() {
                            let outcome = self.shard_jobs[shard].send(part);
                            debug_assert_eq!(
                                outcome,
                                SendOutcome::Sent,
                                "shard worker outlives the driver stage"
                            );
                        }
                    }
                }
                DriverJob::RepairAttached => {
                    self.mirror = None;
                }
                DriverJob::Finish => {
                    self.driver.flush();
                    let flushed = self.driver.read_records();
                    let _ = ledgers.send(QuantumLedger {
                        charges: ChargeLedger::default(),
                        records: 0,
                        events_dropped: self.driver.stats().events_dropped,
                        aggs: None,
                        flushed,
                    });
                    busy += start.elapsed();
                    break;
                }
            }
            busy += start.elapsed();
        }
        (self.driver, busy)
    }
}

/// What the stage threads hand back when a pipelined session winds down.
struct Reclaimed {
    driver: Driver,
    /// The shard detectors, in shard order.
    detectors: Vec<Detector>,
    driver_busy: Duration,
    /// The busiest shard's time.
    detector_busy: Duration,
}

/// The running half of a pipelined session: the stage threads' endpoints and
/// the bounded-lag settlement bookkeeping.
struct PipeStage {
    jobs: channel::Sender<DriverJob>,
    ledgers: mpsc::Receiver<QuantumLedger>,
    /// `None` once [`PipeStage::join`] has taken the stage threads.
    driver_worker: Option<JoinHandle<(Driver, Duration)>>,
    shard_workers: Vec<JoinHandle<(Detector, Duration)>>,
    /// The configured `driver_lag_quanta`.
    lag: u64,
    /// The boundary index the next `submit` call will open.
    next_quantum: u64,
    /// Boundary indices of batches whose ledgers have not settled yet, in
    /// send order. The front settles once `front + lag <= current boundary`.
    outstanding: VecDeque<u64>,
    /// The mirror aggregates as of the last settled ledger that carried
    /// them: what the armed repair trigger evaluates between batches.
    last_aggs: Arc<Vec<LineAgg>>,
}

impl PipeStage {
    fn spawn(
        driver: Driver,
        mirror: Option<Detector>,
        detectors: Vec<Detector>,
        lag: usize,
        num_cores: usize,
    ) -> Self {
        let mut shard_jobs = Vec::with_capacity(detectors.len());
        let mut shard_workers = Vec::with_capacity(detectors.len());
        for (i, detector) in detectors.into_iter().enumerate() {
            let (jobs_tx, jobs_rx) = channel::bounded(CHANNEL_DEPTH, OverflowPolicy::Backpressure);
            let worker = std::thread::Builder::new()
                .name(format!("laser-detector-{i}"))
                .spawn(move || detector_worker(detector, jobs_rx))
                .expect("spawn detector stage worker"); // lint:allow(panic) — thread spawn fails only on resource exhaustion; there is no graceful fallback
            shard_jobs.push(jobs_tx);
            shard_workers.push(worker);
        }
        // The batch channel must hold at least lag + 1 quanta so a full
        // credit window never blocks the machine on its own backpressure.
        let depth = CHANNEL_DEPTH.max(lag + 1);
        let (jobs, jobs_rx) = channel::bounded(depth, OverflowPolicy::Backpressure);
        let (ledgers_tx, ledgers) = mpsc::channel();
        let stage = DriverStageWorker {
            driver,
            mirror,
            shard_jobs,
            num_cores,
        };
        let driver_worker = std::thread::Builder::new()
            .name("laser-driver".into())
            .spawn(move || stage.run(jobs_rx, ledgers_tx))
            .expect("spawn driver stage worker"); // lint:allow(panic) — thread spawn fails only on resource exhaustion; there is no graceful fallback
        PipeStage {
            jobs,
            ledgers,
            driver_worker: Some(driver_worker),
            shard_workers,
            lag: lag as u64,
            next_quantum: 0,
            outstanding: VecDeque::new(),
            last_aggs: Arc::default(),
        }
    }

    /// Hand one job to the driver stage.
    fn send(&self, job: DriverJob) {
        let outcome = self.jobs.send(job);
        debug_assert_eq!(
            outcome,
            SendOutcome::Sent,
            "driver stage outlives the session"
        );
    }

    /// Open the next quantum boundary: enqueue the quantum's raw batch for
    /// the driver stage and return the boundary's index.
    fn submit(&mut self, events: Vec<HitmEvent>) -> u64 {
        let boundary = self.next_quantum;
        self.next_quantum += 1;
        if !events.is_empty() {
            self.send(DriverJob::Batch(events));
            self.outstanding.push_back(boundary);
        }
        boundary
    }

    /// Receive every outstanding ledger that has come due at `boundary`
    /// (front quantum + lag ≤ boundary), oldest first, keeping the latest
    /// mirror aggregates for the repair trigger.
    fn settle_due(&mut self, boundary: u64) -> Vec<QuantumLedger> {
        let mut due = Vec::new();
        while matches!(self.outstanding.front(), Some(&q) if q + self.lag <= boundary) {
            self.outstanding.pop_front();
            let ledger = self.recv_ledger();
            if let Some(aggs) = &ledger.aggs {
                self.last_aggs = Arc::clone(aggs);
            }
            due.push(ledger);
        }
        due
    }

    /// End of run: ask the driver stage for its final flush and return the
    /// flushed records, still unprocessed.
    fn flush(&mut self) -> Vec<HitmRecord> {
        self.send(DriverJob::Finish);
        self.recv_ledger().flushed
    }

    /// Block for the driver stage's next ledger. The stage holds its ledger
    /// sender for as long as the session holds its job sender, so a
    /// disconnect here means a stage worker died mid-run — in that case its
    /// own panic is the real diagnostic, so join the stages and re-raise the
    /// first panic payload rather than masking it with a channel error (the
    /// campaign runner's per-cell `catch_unwind` then records the true
    /// message).
    fn recv_ledger(&mut self) -> QuantumLedger {
        // Yield-spin before parking: at lag 0 the machine waits for the
        // driver stage once per quantum, and a bounded yield loop is much
        // cheaper than a futex park/unpark round-trip — on a single hardware
        // thread each yield hands the timeslice straight to the driver
        // stage, and on a multi-core host the ledger usually lands within a
        // few yields.
        for _ in 0..64 {
            match self.ledgers.try_recv() {
                Ok(ledger) => return ledger,
                Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        }
        match self.ledgers.recv() {
            Ok(ledger) => ledger,
            Err(mpsc::RecvError) => {
                self.join();
                worker_exited_early()
            }
        }
    }

    /// Join every stage thread and collect what they owned: the driver, the
    /// shard detectors and the stages' busy times. The driver stage exits on
    /// [`DriverJob::Finish`] (or when it dies), dropping the shard senders,
    /// so every shard drains its queue in FIFO order and exits too. If any
    /// worker panicked, the first payload (driver, then shard order) is
    /// re-raised once all threads are joined: it is the real diagnostic, and
    /// per-cell panic isolation depends on it.
    fn join(&mut self) -> Reclaimed {
        let Some(driver_worker) = self.driver_worker.take() else {
            // Only reachable by reusing a session whose worker already died.
            worker_exited_early()
        };
        let driver_exit = driver_worker.join();
        let shard_exits: Vec<_> = std::mem::take(&mut self.shard_workers)
            .into_iter()
            .map(JoinHandle::join)
            .collect();
        let (driver, driver_busy) =
            driver_exit.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let mut detectors = Vec::with_capacity(shard_exits.len());
        let mut detector_busy = Duration::ZERO;
        for exit in shard_exits {
            let (detector, busy) =
                exit.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            detectors.push(detector);
            detector_busy = detector_busy.max(busy);
        }
        Reclaimed {
            driver,
            detectors,
            driver_busy,
            detector_busy,
        }
    }
}

/// A stage worker exited while the session still held its channel, with no
/// panic of its own to re-raise.
fn worker_exited_early() -> ! {
    panic!("pipeline stage worker exited before its channel closed") // lint:allow(panic) — a worker exiting with its channel open is a protocol bug worth crashing the cell
}

/// How the driver and detector are deployed: on the calling thread, or as the
/// worker stages of a pipelined session. Fixed at construction.
// One `Stage` per session, never stored in bulk: boxing the inline pair would
// only add a pointer hop to every quantum boundary.
#[allow(clippy::large_enum_variant)]
enum Stage {
    Inline { driver: Driver, detector: Detector },
    Piped(PipeStage),
}

/// The machine-thread half of a session — application, observer, repair and
/// overhead accounting — which behaves the same however the [`Stage`] is
/// deployed.
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
    /// Wall time the machine thread spent inside `run_quantum` (pipelined
    /// sessions only; inline runs skip the measurement entirely).
    machine_busy: Duration,
}

/// An in-flight LASER run: application, driver, detector, observer and
/// (optionally) repair, as one owned value.
pub struct LaserSession {
    app: AppSide,
    stage: Stage,
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
    /// (see [`AppSide::hitm_cost_factor`]). Evaluated on the machine thread
    /// at the batch's charge point, so inline and pipelined runs use the
    /// same value.
    fn effective_repair_threshold(&self) -> f64 {
        self.config.repair_rate_threshold / self.hitm_cost_factor()
    }

    /// Charge `cycles` of detector work to the machine, spread over the
    /// cores. Integer division would silently drop `cycles % num_cores` — on
    /// small batches that rounds the whole charge down to zero — so the
    /// remainder is distributed one cycle each to the first cores, keeping
    /// the total charged exactly `cycles` (the same policy as the driver's
    /// record-copy charging).
    fn charge_detector_cycles(&mut self, cycles: u64) {
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

    /// Apply one settled ledger to the machine. The ledger's charges commute
    /// (the scheduler's pick depends only on the final per-core clocks), so
    /// applying them here in one shot lands the machine in exactly the state
    /// synchronous per-quantum charging would have produced.
    fn apply_ledger(&mut self, ledger: &QuantumLedger) {
        ledger.charges.apply(&mut self.machine);
        if ledger.records > 0 {
            // The detector's per-record cost is configuration, not state, so
            // the machine prices the batch at the inline charge point while
            // the semantic processing overlaps on the workers. The formula
            // is shared with `Detector::processing_cycles`; the two sites
            // must agree exactly for lag=0 runs to stay byte-identical.
            let cycles = detect::batch_processing_cycles(
                self.config.detector_cycles_per_record,
                ledger.records,
            );
            self.charge_detector_cycles(cycles);
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
        aggs: Option<&[LineAgg]>,
    ) -> ControlFlow<StopReason> {
        if n == 0 || !self.observed {
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

    /// [`AppSide::emit_batch`] for a settled ledger.
    fn emit_ledger(&mut self, ledger: &QuantumLedger) -> ControlFlow<StopReason> {
        let aggs = ledger.aggs.as_deref().map_or(&[][..], Vec::as_slice);
        self.emit_batch(ledger.records, ledger.events_dropped, Some(aggs))
    }

    /// Whether LASERREPAIR is enabled and has not attached yet.
    fn repair_armed(&self) -> bool {
        self.config.enable_repair && self.repair.is_none()
    }

    /// Evaluate the armed repair trigger against the detector's per-line
    /// `aggs` — an inline session's own detector's, a pipelined session's
    /// last settled mirror aggregates. It runs at every boundary, not only
    /// when a batch lands, because rates decay as elapsed time grows.
    /// Attaches the SSB instrumentation when the lines over the threshold
    /// yield a profitable plan, reports it, and returns whether it attached.
    fn evaluate_trigger(&mut self, aggs: &[LineAgg]) -> ControlFlow<StopReason, bool> {
        let elapsed = self.machine.elapsed_benchmark_seconds();
        let threshold = self.effective_repair_threshold();
        let pcs = detect::trigger_pcs_from(aggs, elapsed, threshold);
        let Some(attached) = self.attach_repair_from_pcs(&pcs) else {
            return ControlFlow::Continue(false);
        };
        if self.observed {
            self.emit(attached)?;
        }
        ControlFlow::Continue(true)
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
    /// session's detectors live on their worker threads, so this is `None`.
    pub fn detector(&self) -> Option<&Detector> {
        match &self.stage {
            Stage::Inline { detector, .. } => Some(detector),
            Stage::Piped(_) => None,
        }
    }

    /// Whether the driver and detector stages run pipelined on worker
    /// threads.
    pub fn is_pipelined(&self) -> bool {
        matches!(self.stage, Stage::Piped(_))
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
    /// In a pipelined session the driver stage services the batch on its own
    /// thread and the detector shards consume the routed records on theirs;
    /// at `driver_lag_quanta` 0 the event order, payloads and machine
    /// charging are identical to an inline run (see the
    /// [module docs](self)).
    ///
    /// # Errors
    /// Returns an error if the machine exhausts its step budget.
    pub fn advance(&mut self) -> Result<SessionStatus, LaserError> {
        let app = &mut self.app;
        let steps_before = app.machine.steps();
        let quantum = if matches!(self.stage, Stage::Piped(_)) {
            let start = Instant::now(); // lint:allow(wall-clock) — occupancy accounting only; never feeds back into simulated state
            let quantum = app.machine.run_quantum(app.config.poll_interval_steps);
            app.machine_busy += start.elapsed();
            quantum
        } else {
            app.machine.run_quantum(app.config.poll_interval_steps)
        };
        let status = quantum.status;
        // Capture the quantum event *before* the driver charges interrupt and
        // copy overhead, matching the inline emission point.
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

    /// The quantum boundary: service the quantum's raw HITM batch, report
    /// the boundary to the observer, and evaluate the armed repair trigger.
    fn settle_boundary(
        &mut self,
        events: Vec<HitmEvent>,
        quantum_event: Option<LaserEvent>,
    ) -> ControlFlow<StopReason> {
        let app = &mut self.app;
        match &mut self.stage {
            // Inline: service the PMU synchronously, then run the detector
            // stage on the calling thread.
            Stage::Inline { driver, detector } => {
                driver.ingest(events, &mut app.machine);
                if let Some(event) = quantum_event {
                    app.emit(event)?;
                }
                let records = driver.read_records();
                let mut aggs = None;
                if !records.is_empty() {
                    detector.process(&records);
                    app.charge_detector_cycles(detector.processing_cycles(records.len()));
                    aggs = app.observed.then(|| detector.line_aggregates());
                    let dropped_total = driver.stats().events_dropped;
                    app.emit_batch(records.len(), dropped_total, aggs.as_deref())?;
                }
                if app.repair_armed() {
                    let aggs = aggs.unwrap_or_else(|| detector.line_aggregates());
                    app.evaluate_trigger(&aggs)?;
                }
            }
            // Pipelined: enqueue the raw batch for the driver stage, settle
            // every charge ledger that has come due under the bounded-lag
            // credit scheme, then report the settled batches in quantum
            // order. The trigger is pre-armed: it runs off the last settled
            // mirror aggregates, with no round-trip to the workers.
            Stage::Piped(pipe) => {
                let boundary = pipe.submit(events);
                let due = pipe.settle_due(boundary);
                for ledger in &due {
                    app.apply_ledger(ledger);
                }
                if let Some(event) = quantum_event {
                    app.emit(event)?;
                }
                for ledger in &due {
                    app.emit_ledger(ledger)?;
                }
                if app.repair_armed() && app.evaluate_trigger(&pipe.last_aggs)? && !app.observed {
                    // Unobserved and attached: nothing needs the mirror's
                    // aggregates any more; let the driver stage retire it.
                    pipe.send(DriverJob::RepairAttached);
                }
            }
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
    /// session first settles its outstanding ledgers (emitting their
    /// deferred events), then reclaims the driver from the driver stage and
    /// folds the shard detectors back into one ([`Detector::absorb`], shard
    /// order) — the shards' state is disjoint, so the merged detector is
    /// exactly the one an inline run would hold here — so the final flush
    /// (and the report) sees every streamed batch.
    pub fn finish(self) -> LaserOutcome {
        let LaserSession { mut app, stage } = self;
        let (mut driver, mut detector, mut records, stage_occupancy) = match stage {
            Stage::Inline { driver, detector } => (driver, detector, Vec::new(), None),
            Stage::Piped(mut pipe) => {
                // The run is over: every outstanding ledger is due, lag or
                // no lag, and a Break has nothing left to cancel.
                let due = pipe.settle_due(u64::MAX);
                for ledger in &due {
                    app.apply_ledger(ledger);
                }
                for ledger in &due {
                    let _ = app.emit_ledger(ledger);
                }
                let flushed = pipe.flush();
                let mut reclaimed = pipe.join();
                let mut merged = reclaimed.detectors.remove(0);
                for shard in reclaimed.detectors {
                    merged.absorb(shard);
                }
                let occupancy = StageOccupancy {
                    machine_busy: app.machine_busy,
                    driver_busy: reclaimed.driver_busy,
                    detector_busy: reclaimed.detector_busy,
                };
                (reclaimed.driver, merged, flushed, Some(occupancy))
            }
        };

        driver.poll(&mut app.machine);
        driver.flush();
        records.extend(driver.read_records());
        if !records.is_empty() {
            detector.process(&records);
            app.charge_detector_cycles(detector.processing_cycles(records.len()));
            let _ = app.emit_batch(records.len(), driver.stats().events_dropped, None);
        }

        if let Some(summary) = app.repair.as_mut() {
            // The hook owns its statistics; read them back out of the machine.
            if let Some(ssb) = app
                .machine
                .hook()
                .and_then(|h| h.as_any())
                .and_then(|a| a.downcast_ref::<SsbHook>())
            {
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
            stage_occupancy,
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

    /// Two threads false-sharing adjacent counters in one cache line, using
    /// the memory-destination increment compilers emit for `counter[i]++`.
    fn contended_image(name: &str, iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new(name);
        b.source("xthread.c", 12);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.mem_add(Reg(0), 0, Operand::Imm(1), 8);
        b.source("xthread.c", 13);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = laser_machine::WorkloadImage::new(name, program);
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
        let config = PipelineConfig::default();
        assert!(!config.enabled);
        assert_eq!(config.shards, 1, "single worker unless asked");
        assert_eq!(
            config.driver_lag_quanta, 0,
            "lag defaults to 0 so pipelined runs stay byte-identical to inline"
        );
        let on = PipelineConfig::pipelined()
            .with_shards(0)
            .with_driver_lag(3);
        assert!(on.enabled);
        assert_eq!(on.shards, 1, "shard count clamps to at least one");
        assert_eq!(on.driver_lag_quanta, 3);
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
        // With shards and lag, ledgers are still outstanding when the stop
        // surfaces; finish() must settle them and charge every sampled
        // record exactly once.
        for pipeline in [
            PipelineConfig::pipelined(),
            PipelineConfig::pipelined()
                .with_shards(4)
                .with_driver_lag(2),
        ] {
            let image = contended_image("pipstop", 6000);
            let config = LaserConfig {
                detector_cycles_per_record: 37,
                ..LaserConfig::detection_only()
            };
            let mut session = Laser::builder()
                .config(config)
                .pipeline_config(pipeline)
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
                "every sampled record must be processed and charged exactly once: {pipeline:?}"
            );
            assert_eq!(
                outcome.run.stats.injected_overhead_cycles,
                outcome.driver_stats.overhead_cycles + outcome.detector_cycles,
                "{pipeline:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Sharded detection
    // ------------------------------------------------------------------

    #[test]
    fn sharded_detection_run_is_byte_identical_to_inline() {
        let image = contended_image("sharded", 6000);
        let config = LaserConfig::detection_only();
        let inline = Laser::builder()
            .config(config.clone())
            .build(&image)
            .run()
            .unwrap();
        for shards in [1, 2, 8] {
            let sharded = Laser::builder()
                .config(config.clone())
                .pipeline_config(PipelineConfig::pipelined().with_shards(shards))
                .build(&image)
                .run()
                .unwrap();
            assert_eq!(inline.cycles(), sharded.cycles(), "shards={shards}");
            assert_eq!(inline.run.per_core_cycles, sharded.run.per_core_cycles);
            assert_eq!(inline.report, sharded.report, "shards={shards}");
            assert_eq!(inline.detector_cycles, sharded.detector_cycles);
            assert_eq!(inline.driver_stats, sharded.driver_stats);
            assert_eq!(
                format!("{:?}", inline.report),
                format!("{:?}", sharded.report),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_repair_run_attaches_at_the_same_cycle_as_inline() {
        // Lock-step quanta collect one reply per shard and merge before the
        // trigger decision, so the attach point must not move with the shard
        // count.
        let image = contended_image("shardrep", 6000);
        let inline = Laser::builder().build(&image).run().unwrap();
        assert!(inline.repair.is_some(), "workload should trigger repair");
        for shards in [2, 8] {
            let sharded = Laser::builder()
                .pipeline_config(PipelineConfig::pipelined().with_shards(shards))
                .build(&image)
                .run()
                .unwrap();
            let (a, b) = (
                inline.repair.as_ref().unwrap(),
                sharded.repair.as_ref().unwrap(),
            );
            assert_eq!(
                a.triggered_at_cycle, b.triggered_at_cycle,
                "shards={shards}"
            );
            assert_eq!(a.plan.instrumented_blocks, b.plan.instrumented_blocks);
            assert_eq!(a.plan.flush_blocks, b.plan.flush_blocks);
            assert_eq!(a.plan.ssb_stores, b.plan.ssb_stores);
            assert_eq!(a.stats, b.stats);
            assert_eq!(inline.cycles(), sharded.cycles(), "shards={shards}");
            assert_eq!(inline.report, sharded.report);
            assert_eq!(inline.detector_cycles, sharded.detector_cycles);
        }
    }

    #[test]
    fn sharded_event_stream_is_byte_identical_to_inline() {
        for config in [LaserConfig::detection_only(), LaserConfig::default()] {
            let image = contended_image("shardevents", 6000);
            let inline_log = EventLog::new();
            let inline = Laser::builder()
                .config(config.clone())
                .observer(inline_log.clone())
                .build(&image)
                .run()
                .unwrap();
            for shards in [2, 8] {
                let sharded_log = EventLog::new();
                let sharded = Laser::builder()
                    .config(config.clone())
                    .pipeline_config(PipelineConfig::pipelined().with_shards(shards))
                    .observer(sharded_log.clone())
                    .build(&image)
                    .run()
                    .unwrap();
                assert_eq!(inline.cycles(), sharded.cycles());
                let (ie, se) = (inline_log.events(), sharded_log.events());
                assert!(!ie.is_empty());
                assert_eq!(ie, se, "repair={} shards={shards}", config.enable_repair);
                assert_eq!(format!("{ie:?}"), format!("{se:?}"));
                assert_stream_accounts_for_every_record(&se, &sharded);
            }
        }
    }

    #[test]
    fn lagged_charge_back_is_deterministic_across_identical_runs() {
        // driver_lag_quanta ≥ 1 overlaps the machine with the driver stage:
        // charges for quantum k land at boundary k + lag, which moves the
        // cores' clocks relative to an inline run and perturbs the
        // interleaving. The contract is determinism —
        // two identical deployments produce identical bytes — NOT
        // inline-identity.
        for lag in [1usize, 3] {
            let image = contended_image("lagdet", 6000);
            let run = |config: LaserConfig| {
                let log = EventLog::new();
                let outcome = Laser::builder()
                    .config(config)
                    .pipeline_config(
                        PipelineConfig::pipelined()
                            .with_shards(2)
                            .with_driver_lag(lag),
                    )
                    .observer(log.clone())
                    .build(&image)
                    .run()
                    .unwrap();
                (outcome, log.events())
            };
            for config in [LaserConfig::detection_only(), LaserConfig::default()] {
                let (a, a_events) = run(config.clone());
                let (b, b_events) = run(config);
                assert_eq!(a.cycles(), b.cycles(), "lag {lag}");
                assert_eq!(a.report, b.report, "lag {lag}");
                assert_eq!(a.detector_cycles, b.detector_cycles, "lag {lag}");
                assert_eq!(a_events, b_events, "lag {lag}");
                // Ledgers still outstanding at the end settle in the
                // wind-down; their deferred events must not be lost.
                assert_stream_accounts_for_every_record(&a_events, &a);
                // Every deferred cycle still lands: the ledgers conserve the
                // driver's overhead exactly, however late they settle.
                assert_eq!(
                    a.run.stats.injected_overhead_cycles,
                    a.driver_stats.overhead_cycles + a.detector_cycles,
                    "lag {lag}"
                );
            }
        }
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
}
