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
//! Runs are assembled with [`Laser::builder`] — configuration, machine,
//! pipeline deployment and an optional step [`CellBudget`] — and driven to
//! an outcome with `run()`:
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
//! To watch a run as it goes, step it with [`LaserSession::advance`] and read
//! the machine, the inline detector and the repair state between quanta; a
//! budget stops the run mid-flight with a [`StopReason`] — see
//! [`laser_core::budget`](crate::core::budget).
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
    CellBudget, ContentionKind, Laser, LaserConfig, LaserError, LaserOutcome, LaserSession,
    PipelineConfig, SessionBuilder, SessionStatus, StopReason,
};
pub use laser_machine::{
    Machine, MachineConfig, ThreadPlacement, Topology, TopologySpec, WorkloadImage,
};
