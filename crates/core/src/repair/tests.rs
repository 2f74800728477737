//! Differential tests of LASERREPAIR's run-time half, and what they share:
//! the repair plans real sessions attach.
//!
//! * [`lockstep`] holds a machine carrying an [`SsbHook`](super::SsbHook)
//!   that runs ahead (`run_steps(n)`) to one that single-steps
//!   (`n × run_steps(1)`), on those plans.
//! * [`oracle`] holds the word-wise
//!   [`SoftwareStoreBuffer`](super::SoftwareStoreBuffer) to the per-byte
//!   buffer it replaced.
//!
//! Every test here has `repair::` in its path, so
//! `cargo test --release -p laser-core repair::` runs them at their full
//! counts; a debug build keeps reduced ones.

use std::sync::OnceLock;

use laser_machine::{MachineConfig, TopologySpec, WorkloadImage};
use laser_workloads::{registry, BuildOptions};

use super::RepairPlan;
pub(super) use crate::detect::tests::oracle::XorShift;
use crate::Laser;

mod lockstep;
mod oracle;

/// A workload on a topology whose default session attached repair, with the
/// plan it attached.
pub(super) struct RepairedCase {
    pub(super) what: String,
    pub(super) image: WorkloadImage,
    pub(super) config: MachineConfig,
    pub(super) plan: RepairPlan,
}

/// The registry workloads on which a default session attaches repair at
/// [`REPAIRED_SCALE`], on every topology below. A release build runs the
/// whole registry and checks the list; a debug build takes its word.
const REPAIRED: [&str; 3] = ["histogram'", "linear_regression", "lu_ncb"];
const REPAIRED_SCALE: f64 = 0.7;
const TOPOLOGIES: [TopologySpec; 3] = [
    TopologySpec::Flat,
    TopologySpec::DualSocket,
    TopologySpec::OctoSocket,
];

/// Every (workload, topology) on which a default session attaches repair.
pub(super) fn repaired_cases() -> &'static [RepairedCase] {
    static CASES: OnceLock<Vec<RepairedCase>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut cases = Vec::new();
        for topology in TOPOLOGIES {
            let config = MachineConfig::for_topology(topology);
            for spec in registry() {
                let listed = REPAIRED.contains(&spec.name);
                if cfg!(debug_assertions) && !listed {
                    continue;
                }
                let options = BuildOptions::scaled(REPAIRED_SCALE).for_topology(topology);
                let image = spec.build(&options);
                let outcome = Laser::builder()
                    .machine(config.clone())
                    .build(&image)
                    .run()
                    .expect("the session finishes");
                assert_eq!(
                    outcome.repair.is_some(),
                    listed,
                    "{} on {topology:?}: repair attached?",
                    spec.name
                );
                if let Some(repair) = outcome.repair {
                    cases.push(RepairedCase {
                        what: format!("{} on {topology:?}", spec.name),
                        image,
                        config: config.clone(),
                        plan: repair.plan,
                    });
                }
            }
        }
        cases
    })
}
