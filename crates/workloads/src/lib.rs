//! # laser-workloads
//!
//! Synthetic reproductions of the 35 workload configurations the LASER paper
//! evaluates (Phoenix 1.0, Parsec 3.0 and Splash2x), plus the 160 two-thread
//! characterization test cases of Section 3.1 and the manually-fixed variants
//! used in Figures 11 and 14.
//!
//! Each workload is a small kernel written against the `laser-isa` builder
//! that reproduces the benchmark's *sharing structure* — which data is shared,
//! at what granularity, through which allocator layout, and how often — rather
//! than its numerical behaviour. That is the property LASER's detection
//! accuracy and repair benefit depend on. Every workload with a known
//! performance bug (Table 1 / Table 2 of the paper) carries a
//! [`spec::KnownBug`] entry naming the synthetic source lines involved, which
//! the accuracy experiments compare detector reports against.
//!
//! ## Example
//!
//! ```
//! use laser_workloads::registry;
//!
//! let specs = registry();
//! assert_eq!(specs.len(), 35);
//! let linear_regression = laser_workloads::find("linear_regression").unwrap();
//! let image = linear_regression.build_default();
//! assert!(!image.threads().is_empty());
//! ```

pub mod common;
pub mod microbench;
pub mod parsec;
pub mod phoenix;
pub mod spec;
pub mod splash2x;

pub use microbench::{characterization_cases, CharacterizationCase, SharingPattern, WriteMode};
pub use spec::{
    find, registry, BugKind, BuildOptions, KnownBug, SheriffCompat, Suite, WorkloadSpec,
};
