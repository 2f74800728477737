//! # laser-baselines
//!
//! Models of the tools the LASER paper compares against:
//!
//! * [`vtune`] — an Intel VTune Amplifier-style profiler: same PEBS HITM
//!   events, but configured to interrupt on every sample, with heavier
//!   always-on profiling machinery, no record filtering and no true-/false-
//!   sharing classification (Sections 7.1–7.2).
//! * [`sheriff`] — Sheriff-Detect and Sheriff-Protect: the threads-as-
//!   processes execution model whose per-synchronization page twinning and
//!   diffing costs dominate on synchronization-heavy programs, which fixes
//!   false sharing as a side effect of address-space isolation, and which
//!   cannot run much of the benchmark suite at all (Sections 5, 7.3).
//!
//! Both are driven by the same simulated machine and workloads as LASER
//! itself, so the accuracy (Table 1/2) and overhead (Figures 10 and 14)
//! comparisons are apples-to-apples.

pub mod sheriff;
pub mod vtune;

pub use sheriff::{
    Sheriff, SheriffConfig, SheriffFailure, SheriffMode, SheriffNative, SheriffOutcome, SheriffRun,
};
pub use vtune::{Vtune, VtuneConfig, VtuneOutcome};
