//! The cross-socket scenario sweep: how LASER's repair benefit grows with
//! socket count.
//!
//! The paper evaluates on a single-socket Haswell, where every HITM costs the
//! same. Its premise — HITM transfers are the dominant, repairable cost of
//! sharing — gets *stronger* on multi-socket parts, where a cross-socket
//! HITM costs 2–3× a local one. This sweep runs the headline false-sharing
//! workloads on every topology preset (`flat`, `2s`, `4s`, `8s`), threads placed
//! round-robin across sockets so the contended lines actually cross the
//! interconnect, and reports per topology:
//!
//! * the ground-truth remote-HITM counts under native execution and under
//!   LASER with repair (repair buffering the contended stores removes the
//!   cross-socket transfers);
//! * LASERDETECT's overhead and LASER's repaired runtime, both normalized to
//!   the same topology's native run.
//!
//! Like every figure, the sweep is a planner ([`plan_xsocket`]) plus a pure
//! view ([`xsocket_from_grid`]) over the shared [`Grid`] cell cache, so
//! `experiments xsocket` shares its native cells with nothing but pays for
//! each `(workload, tool, topology)` cell exactly once. A scenario's
//! `xsocket` sweep plans through the same `request_xsocket`.

use laser_core::TopologySpec;
use laser_workloads::WorkloadSpec;

use crate::emit::{Column, Emit, Prec, View};
use crate::grid::{ExperimentError, Grid, GridResult};
use crate::tool::ToolSpec;

/// The false-sharing workloads the sweep runs: the paper's headline
/// repairable bugs.
pub const XSOCKET_WORKLOADS: &[&str] = &["histogram'", "linear_regression", "reverse_index"];

/// One `(topology, workload)` row of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct XsocketRow {
    /// The topology preset the row ran on.
    pub topology: TopologySpec,
    /// Workload name.
    pub workload: &'static str,
    /// Native cycles on this topology (the row's normalization base).
    pub native_cycles: u64,
    /// Ground-truth HITM events of the native run.
    pub native_hitms: u64,
    /// ... of which crossed a socket boundary (0 on `flat`).
    pub native_remote_hitms: u64,
    /// LASERDETECT runtime normalized to this topology's native run.
    pub detect_norm: f64,
    /// LASER (with repair) runtime normalized to this topology's native run.
    pub repair_norm: f64,
    /// Whether LASERREPAIR attached during the LASER run.
    pub repair_invoked: bool,
    /// Cross-socket HITM events remaining under LASER with repair.
    pub repair_remote_hitms: u64,
}

impl XsocketRow {
    /// Fraction of the native run's HITM traffic that crossed sockets.
    pub fn native_remote_share(&self) -> f64 {
        if self.native_hitms == 0 {
            0.0
        } else {
            self.native_remote_hitms as f64 / self.native_hitms as f64
        }
    }
}

/// The sweep: rows grouped by topology (sweep order), workloads in registry
/// order within each.
#[derive(Debug, Clone, Default)]
pub struct XsocketReport {
    /// One row per `(topology, workload)`.
    pub rows: Vec<XsocketRow>,
}

impl XsocketReport {
    /// The rows of one topology.
    pub fn topology_rows(&self, topo: TopologySpec) -> Vec<&XsocketRow> {
        self.rows.iter().filter(|r| r.topology == topo).collect()
    }
}

const XSOCKET_COLUMNS: &[Column] = &[
    Column::right("topology", "topo", 6),
    Column::data("sockets"),
    Column::left("workload", "workload", 20),
    Column::right("native_cycles", "native_cyc", 12),
    Column::data("native_hitms"),
    Column::right("native_remote_hitms", "remote_hitms", 14),
    Column::json_only("native_remote_share"),
    Column::right("detect_norm", "detect", 8).text(Prec::Fixed(3)),
    Column::right("repair_norm", "laser", 8).text(Prec::Fixed(3)),
    Column::right("repair_invoked", "repair", 7),
    Column::right("repair_remote_hitms", "post_repair", 14),
];

impl Emit for XsocketReport {
    fn view(&self) -> View {
        let row = |r: &XsocketRow| {
            vec![
                r.topology.key().into(),
                r.topology.sockets().into(),
                r.workload.into(),
                r.native_cycles.into(),
                r.native_hitms.into(),
                r.native_remote_hitms.into(),
                r.native_remote_share().into(),
                r.detect_norm.into(),
                r.repair_norm.into(),
                r.repair_invoked.into(),
                r.repair_remote_hitms.into(),
            ]
        };
        View::new(
            "xsocket",
            "Cross-socket sweep:",
            XSOCKET_COLUMNS,
            &self.rows,
            row,
        )
    }

    /// The text leads with the workload and puts the post-repair HITMs next
    /// to the native ones.
    fn render(&self) -> String {
        self.view().text_in(&[
            "workload",
            "topology",
            "native_cycles",
            "native_remote_hitms",
            "repair_remote_hitms",
            "detect_norm",
            "repair_norm",
            "repair_invoked",
        ])
    }
}

/// Plan the sweep's cells: every headline false-sharing workload the scale
/// selects, each through `request_xsocket`.
pub fn plan_xsocket(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        if XSOCKET_WORKLOADS.contains(&spec.name) {
            request_xsocket(grid, &spec);
        }
    }
}

/// Request one workload's sweep cells: native, LASERDETECT and LASER on
/// every preset topology. A scenario's `xsocket` sweep requests its named
/// workloads through this too.
pub(crate) fn request_xsocket(grid: &mut Grid, spec: &WorkloadSpec) {
    for topo in TopologySpec::ALL {
        for tool in [ToolSpec::Native, ToolSpec::LaserDetect, ToolSpec::Laser] {
            grid.request_at(spec, tool, topo);
        }
    }
}

/// Derive the sweep from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn xsocket_from_grid(grid: &GridResult) -> Result<XsocketReport, ExperimentError> {
    let mut rows = Vec::new();
    for topo in TopologySpec::ALL {
        for spec in grid.scale().workloads() {
            if !XSOCKET_WORKLOADS.contains(&spec.name) {
                continue;
            }
            let native = grid.tool_run_at(spec.name, ToolSpec::Native, topo)?;
            let detect = grid.tool_run_at(spec.name, ToolSpec::LaserDetect, topo)?;
            let laser = grid.tool_run_at(spec.name, ToolSpec::Laser, topo)?;
            let base = native.cycles.max(1) as f64;
            rows.push(XsocketRow {
                topology: topo,
                workload: spec.name,
                native_cycles: native.cycles,
                native_hitms: native.hitm_events,
                native_remote_hitms: native.hitm_remote,
                detect_norm: detect.cycles as f64 / base,
                repair_norm: laser.cycles as f64 / base,
                repair_invoked: laser.repair_invoked,
                repair_remote_hitms: laser.hitm_remote,
            });
        }
    }
    Ok(XsocketReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::single_figure;
    use crate::runner::ExperimentScale;

    fn scale() -> ExperimentScale {
        // Full scale (the xsocket default): the repair trigger needs a
        // full-length contended phase to fire early enough to matter.
        ExperimentScale {
            workload_scale: 1.0,
            only: Some(vec!["histogram'"]),
        }
    }

    #[test]
    fn sweep_shows_remote_hitms_and_repair_reducing_them() {
        let report = single_figure(scale(), plan_xsocket, xsocket_from_grid).unwrap();
        // One workload on every preset topology.
        assert_eq!(report.rows.len(), TopologySpec::ALL.len());
        let flat = &report.topology_rows(TopologySpec::Flat)[0];
        assert_eq!(flat.native_remote_hitms, 0, "one socket: nothing remote");
        assert!(flat.native_hitms > 0, "histogram' contends");

        let dual = &report.topology_rows(TopologySpec::DualSocket)[0];
        assert!(
            dual.native_remote_hitms > 0,
            "round-robin placement drives contention across sockets"
        );
        assert!(dual.native_remote_share() > 0.0);
        assert!(dual.repair_invoked, "repair should trigger: {dual:?}");
        assert!(
            dual.repair_remote_hitms < dual.native_remote_hitms,
            "repair removes cross-socket HITM traffic ({} -> {})",
            dual.native_remote_hitms,
            dual.repair_remote_hitms
        );
        assert!(
            dual.repair_norm < dual.detect_norm,
            "repair beats detection-only overhead on a contended workload"
        );

        // The sweep's headline: the repair benefit *grows* with the socket
        // count, because each removed HITM is dearer off-socket.
        let quad = &report.topology_rows(TopologySpec::QuadSocket)[0];
        assert!(quad.repair_invoked);
        assert!(
            dual.repair_norm < flat.repair_norm && quad.repair_norm < dual.repair_norm,
            "repair benefit should grow with sockets: flat {:.3} > 2s {:.3} > 4s {:.3}",
            flat.repair_norm,
            dual.repair_norm,
            quad.repair_norm
        );
        let octo = &report.topology_rows(TopologySpec::OctoSocket)[0];
        assert!(octo.repair_invoked);
        assert!(
            octo.native_remote_share() >= quad.native_remote_share(),
            "more sockets leave a larger share of HITMs remote: 4s {:.3} vs 8s {:.3}",
            quad.native_remote_share(),
            octo.native_remote_share()
        );
    }

    #[test]
    fn sweep_respects_the_scale_selection() {
        let scale = ExperimentScale {
            workload_scale: 0.1,
            only: Some(vec!["swaptions"]), // not a sweep workload
        };
        let report = single_figure(scale, plan_xsocket, xsocket_from_grid).unwrap();
        assert!(report.rows.is_empty());
    }
}
