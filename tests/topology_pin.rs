//! Regression pin: the default (single-socket) topology's per-access charges
//! equal the pre-topology flat cost model **exactly**.
//!
//! The topology refactor routed every memory access through
//! `Topology::resolve` + `Topology::cost` instead of pricing the directory's
//! `AccessClass` straight from the `LatencyModel`. On the default topology
//! that indirection must be invisible: these tests pin end-to-end cycle
//! counts captured from the pre-refactor tree (commit `3aaf9e9`, `campaign
//! --threads 1 --scale 0.08`), so any drift in the flat cost path — a
//! misrouted class, an off-by-one in a latency table — fails loudly rather
//! than silently skewing every figure.

use laser_bench::{CellConfig, ToolRun, ToolSpec, TopologySpec};
use laser_machine::{LatencyModel, ResolvedClass, Topology};
use laser_workloads::{find, BuildOptions, WorkloadSpec};

/// Run `tool` on `spec` as the default cell — flat, inline, unbudgeted — at
/// scale 0.08.
fn run(tool: ToolSpec, spec: &WorkloadSpec) -> ToolRun {
    let opts = BuildOptions::scaled(0.08);
    tool.run(spec, &CellConfig::flat(spec.name, &tool.key(), &opts))
        .unwrap()
}

/// Cycle counts recorded from the pre-topology tree at scale 0.08.
const PINNED_NATIVE: &[(&str, u64)] = &[
    ("histogram'", 21_351),
    ("linear_regression", 42_975),
    ("swaptions", 5_383),
];

#[test]
fn default_topology_native_cycles_match_the_pre_refactor_flat_model() {
    for &(name, cycles) in PINNED_NATIVE {
        let spec = find(name).expect("known workload");
        let run = run(ToolSpec::Native, &spec);
        assert_eq!(
            run.cycles, cycles,
            "{name}: default-topology charges drifted from the flat model"
        );
        assert_eq!(
            run.hitm_remote, 0,
            "{name}: nothing is remote on one socket"
        );
    }
}

#[test]
fn default_topology_laser_cycles_match_the_pre_refactor_flat_model() {
    // The LASER path exercises driver + detector charging on top of the
    // machine's access costs; its end-to-end count pins both.
    let spec = find("histogram'").expect("known workload");
    let run = run(ToolSpec::LaserDetect, &spec);
    assert_eq!(run.cycles, 21_826, "laser-detect charges drifted");
}

#[test]
fn flat_topology_prices_every_class_from_the_base_model() {
    let base = LatencyModel::default();
    let flat = Topology::single_socket();
    assert_eq!(flat.cost(ResolvedClass::L1Hit, &base), base.l1_hit);
    assert_eq!(flat.cost(ResolvedClass::LlcLocal, &base), base.llc_hit);
    assert_eq!(flat.cost(ResolvedClass::HitmLocal, &base), base.hitm);
    assert_eq!(flat.cost(ResolvedClass::DramLocal, &base), base.dram);
}

#[test]
fn explicit_flat_topology_equals_the_default_cell_for_cell() {
    // Running a cell "at" the flat preset must be the same computation as
    // running it with no topology at all — key, options and outcome.
    let spec = find("histogram'").expect("known workload");
    let opts = BuildOptions::scaled(0.08);
    let flat = CellConfig {
        topology: TopologySpec::Flat,
        ..CellConfig::flat(spec.name, "native", &opts)
    };
    assert_eq!(flat.adapted_opts(), opts);
    assert_eq!(flat.cell_key(), "native");
    assert_eq!(
        run(ToolSpec::Native, &spec),
        ToolSpec::Native.run(&spec, &flat).unwrap()
    );
    assert_eq!(ToolSpec::Native.key_at(TopologySpec::Flat), "native");
    assert_eq!(
        ToolSpec::Native.key_at(TopologySpec::DualSocket),
        "native@2s"
    );
}
