//! # laser
//!
//! Umbrella crate for the LASER (HPCA 2016) reproduction: re-exports the
//! public API of every sub-crate so examples, integration tests and downstream
//! users can depend on a single crate.
//!
//! * [`isa`] — the mini instruction set and static analyses.
//! * [`machine`] — the multicore simulator (MESI coherence, HITM events, HTM,
//!   instrumentation hooks).
//! * [`pebs`] — the PEBS/PMU model with Haswell's record imprecision and the
//!   kernel-driver model.
//! * [`workloads`] — the 35 synthetic Phoenix/Parsec/Splash2x workloads, the
//!   characterization tests and the known-bug database.
//! * [`core`] — LASERDETECT, LASERREPAIR and the end-to-end [`Laser`] system.
//! * [`baselines`] — the VTune and Sheriff comparison tools.
//!
//! ## Quick start
//!
//! Runs are assembled with [`Laser::builder`] — configuration, machine and an
//! optional [`Observer`] — and driven to an outcome with `run()`:
//!
//! ```
//! use laser::workloads::{find, BuildOptions};
//! use laser::{Laser, LaserConfig};
//!
//! let spec = find("histogram").expect("workload exists");
//! let image = spec.build(&BuildOptions::scaled(0.05));
//! let outcome = Laser::builder()
//!     .config(LaserConfig::default())
//!     .build(&image)
//!     .run()
//!     .expect("run succeeds");
//! println!("{}", outcome.report.render());
//! ```
//!
//! An [`Observer`] attached through the builder streams typed [`LaserEvent`]s
//! while the run advances and can cancel it mid-flight — see
//! [`laser_core::observe`](crate::core::observe).
//!
//! (The paper's alternative-input variant is registered as `histogram'` —
//! apostrophe included — and is the one that false-shares.)

#[cfg(test)]
mod rules;

pub use laser_baselines as baselines;
pub use laser_core as core;
pub use laser_isa as isa;
pub use laser_machine as machine;
pub use laser_pebs as pebs;
pub use laser_workloads as workloads;

pub use laser_core::{
    BudgetObserver, CellBudget, ContentionKind, EventLog, Laser, LaserConfig, LaserError,
    LaserEvent, LaserOutcome, LaserSession, Observer, PipelineConfig, SessionBuilder,
    SessionStatus, StopReason,
};
pub use laser_machine::{
    Machine, MachineConfig, ThreadPlacement, Topology, TopologySpec, WorkloadImage,
};
