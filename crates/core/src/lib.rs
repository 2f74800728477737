//! # laser-core
//!
//! The paper's contribution: **LASERDETECT**, an online cache-contention
//! detector fed by sampled HITM records, and **LASERREPAIR**, an online
//! false-sharing repair tool based on a software store buffer, plus the
//! end-to-end [`system::Laser`] runner that ties the driver, detector and
//! repair together exactly as the paper's Figure 8 does.
//!
//! ## LASERDETECT (Section 4)
//!
//! HITM records arrive from the driver and flow through a pipeline
//! ([`detect::Detector`]):
//!
//! 1. records whose PC is outside the application and its libraries are
//!    dropped (they are spurious);
//! 2. records whose data address falls in a thread stack are dropped;
//! 3. surviving records are aggregated by PC and by source line, and lines
//!    whose HITM rate is below a threshold (default 1 000 HITMs/second) are
//!    filtered from the report;
//! 4. a small cache-line model ([`detect::linemodel`]) replays each record's
//!    access (size and read/write-ness recovered from the binary's load/store
//!    sets) against the last recorded access to that line, classifying the
//!    contention as true or false sharing.
//!
//! ## LASERREPAIR (Section 5)
//!
//! When the false-sharing rate crosses a threshold, [`repair::RepairPlan`]
//! analyses the control-flow graph around the contending PCs, selects the
//! basic blocks whose memory operations must be redirected through the
//! [`repair::SoftwareStoreBuffer`], places flushes at post-dominating blocks,
//! and [`repair::SsbHook`] attaches the instrumentation to the running
//! machine through the Pin-like hook interface. Flushes execute inside a
//! hardware transaction so the coalesced stores become visible atomically,
//! preserving TSO.
//!
//! ## Quick start
//!
//! Runs are built with [`Laser::builder`] — the single construction path —
//! which wires the LASER configuration, the machine configuration, an
//! optional step [`CellBudget`] and the pipeline deployment into a
//! [`LaserSession`]:
//!
//! ```no_run
//! use laser_core::{Laser, LaserConfig};
//! # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
//!
//! let outcome = Laser::builder()
//!     .config(LaserConfig::default())
//!     .build(&image())
//!     .run()
//!     .unwrap();
//! for line in &outcome.report.lines {
//!     println!("{} {:?} {} HITMs/s", line.location, line.kind, line.rate_per_sec);
//! }
//! ```
//!
//! LASER is an *online* tool, and the session exposes that:
//! [`LaserSession::advance`] runs one poll quantum at a time, and between
//! quanta a caller can read the machine, the inline detector and whether
//! repair has attached. A budget stops the run once it retires more
//! instructions than allowed, with a [`StopReason`]:
//!
//! ```no_run
//! use laser_core::{CellBudget, Laser, LaserError, StopReason};
//! # fn image() -> laser_machine::WorkloadImage { unimplemented!() }
//!
//! // Stop the run once it retires more than a million instructions.
//! let result = Laser::builder()
//!     .budget(CellBudget::steps(1_000_000))
//!     .build(&image())
//!     .run();
//! if let Err(LaserError::Stopped(StopReason::StepBudget { used, .. })) = result {
//!     eprintln!("over budget at {used} steps");
//! }
//! ```
//!
//! The builder is the only way to run LASER; [`Laser`] otherwise holds just
//! the native baseline runs ([`Laser::run_native`] and its variants).

pub mod budget;
pub mod config;
pub mod detect;
pub mod repair;
pub mod report;
pub mod session;
pub mod system;

pub use budget::{CellBudget, StopReason};
pub use config::LaserConfig;
pub use detect::Detector;
pub use laser_machine::{ThreadPlacement, Topology, TopologySpec};
pub use repair::{RepairPlan, SoftwareStoreBuffer, SsbHook, SsbStats};
pub use report::{ContentionKind, ContentionReport, LineReport};
pub use session::{LaserSession, PipelineConfig, SessionBuilder, SessionStatus, StageOccupancy};
pub use system::{Laser, LaserError, LaserOutcome, RepairSummary};
