//! The figure table: every experiment the `experiments` binary runs by name,
//! as one [`FigureSpec`] — its subcommand, whether `experiments all` runs it,
//! the cells it plans on the shared [`Grid`], and how its payload is derived
//! from the finished grid. `experiments all`, single-figure dispatch, the
//! binary's usage text and the artifact table in the crate docs all follow
//! [`FIGURES`]; a figure is named once, here.
//!
//! Figure 2 alone plans no cells: it is an allocator-layout demonstration.
//! Every simulated figure, Figure 3's characterization cases included, is
//! cells on the grid, so one executor, one cache, one budget rule and one
//! progress stream serve them all.

use laser_core::TopologySpec;
use serde::json::Value;

use crate::accuracy::{
    fig9_from_grid, fig9_thresholds, plan_fig9, plan_table1, plan_table2, table1_from_grid,
    table2_from_grid,
};
use crate::characterization::{fig2_layout, fig3_from_grid, plan_fig3};
use crate::emit::Emit;
use crate::grid::{ExperimentError, Grid, GridResult};
use crate::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig13_savs,
    fig14_from_grid, plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14,
    FIG12_MIN_OVERHEAD,
};
use crate::scenario::AggregateFormat;
use crate::xsocket::{plan_xsocket, xsocket_from_grid};

/// Why a figure produced no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureError {
    /// The figure has no form under this command line: `experiments all`
    /// skips it with a note, a request for it alone fails.
    Inapplicable(&'static str),
    /// Deriving the figure failed.
    Failed(String),
}

/// One experiment of the `experiments` binary.
pub struct FigureSpec {
    /// Its subcommand and section name.
    pub name: &'static str,
    /// Whether `experiments all` runs it: `all` regenerates exactly the
    /// paper's artifacts.
    pub in_all: bool,
    /// The `--scale` it runs at when none is given; `None` is the
    /// evaluation's default (0.4).
    pub scale: Option<f64>,
    /// Request the cells it needs on the shared grid.
    pub plan: fn(&mut Grid),
    /// Its stdout payload in `format` (see [`AggregateFormat::payload`]),
    /// derived from the finished grid.
    pub derive: Derive,
}

/// How a [`FigureSpec`] derives its payload.
pub type Derive = fn(&GridResult, AggregateFormat) -> Result<String, FigureError>;

/// Every figure, in `experiments all` order.
pub static FIGURES: &[FigureSpec] = &[
    paper("fig2", no_cells, fig2),
    paper("fig3", plan_fig3, |g, f| {
        flat_only(g)?;
        emit(fig3_from_grid(g), f)
    }),
    paper("table1", plan_table1, |g, f| emit(table1_from_grid(g), f)),
    paper("table2", plan_table2, |g, f| emit(table2_from_grid(g), f)),
    paper("fig9", plan_fig9, |g, f| {
        emit(fig9_from_grid(g, &fig9_thresholds()), f)
    }),
    paper("fig10", plan_fig10, |g, f| emit(fig10_from_grid(g), f)),
    paper("fig11", plan_fig11, |g, f| emit(fig11_from_grid(g), f)),
    paper("fig12", plan_fig12, |g, f| {
        emit(fig12_from_grid(g, FIG12_MIN_OVERHEAD), f)
    }),
    paper(
        "fig13",
        |g| plan_fig13(g, &fig13_savs()),
        |g, f| emit(fig13_from_grid(g, &fig13_savs()), f),
    ),
    paper("fig14", plan_fig14, |g, f| emit(fig14_from_grid(g), f)),
    // Beyond the paper. Full scale: the repair trigger needs full-length
    // contended phases to fire early enough to matter.
    FigureSpec {
        name: "xsocket",
        in_all: false,
        scale: Some(1.0),
        plan: plan_xsocket,
        derive: |g, f| emit(xsocket_from_grid(g), f),
    },
];

/// A figure of the paper: part of `experiments all`, at the default scale.
const fn paper(name: &'static str, plan: fn(&mut Grid), derive: Derive) -> FigureSpec {
    FigureSpec {
        name,
        in_all: true,
        scale: None,
        plan,
        derive,
    }
}

/// The figure named `name`.
pub fn figure(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.name == name)
}

fn no_cells(_: &mut Grid) {}

fn emit<R: Emit>(
    report: Result<R, ExperimentError>,
    format: AggregateFormat,
) -> Result<String, FigureError> {
    report
        .map(|r| format.payload(&r))
        .map_err(|e| FigureError::Failed(e.to_string()))
}

/// Figures 2 and 3 are defined on the flat machine: Figure 2 lays out the
/// allocator's array and Figure 3's cases are two-thread programs, and under
/// a topology preset either would pass flat results off as multi-socket
/// data (so [`plan_fig3`] plans nothing there).
fn flat_only(grid: &GridResult) -> Result<(), FigureError> {
    if grid.topology() == TopologySpec::Flat {
        Ok(())
    } else {
        Err(FigureError::Inapplicable(
            "defined on the flat machine only, --topology does not apply",
        ))
    }
}

fn fig2(grid: &GridResult, format: AggregateFormat) -> Result<String, FigureError> {
    if format == AggregateFormat::Csv {
        return Err(FigureError::Inapplicable(
            "a layout demonstration with no csv form",
        ));
    }
    flat_only(grid)?;
    Ok(match format {
        AggregateFormat::Json => Value::object()
            .set("kind", "fig2")
            .set("text", fig2_layout())
            .render(),
        _ => fig2_layout(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::FIG2_WORKLOAD;
    use crate::performance::{FIG11_WORKLOADS, FIG13_WORKLOAD};
    use crate::runner::ExperimentScale;
    use crate::xsocket::XSOCKET_WORKLOADS;
    use laser_workloads::registry;

    #[test]
    fn every_hard_coded_workload_name_is_in_the_registry() {
        // A typo here would silently drop a row from a `contains` filter.
        let known: Vec<&str> = registry().iter().map(|w| w.name).collect();
        let named = FIG11_WORKLOADS
            .iter()
            .chain(XSOCKET_WORKLOADS)
            .chain([&FIG13_WORKLOAD, &FIG2_WORKLOAD]);
        for name in named {
            assert!(known.contains(name), "{name} is not a registry workload");
        }
        // The two planners that look their workload up by name reach their
        // lookups: Figure 13 plans native plus one cell per SAV...
        let mut grid = Grid::new(ExperimentScale::default());
        plan_fig13(&mut grid, &[1, 19]);
        assert_eq!(grid.cells(), 3);
        // ...and Figure 2 lays its workload out.
        assert!(fig2_layout().contains(FIG2_WORKLOAD));
    }

    #[test]
    fn figures_are_named_once_and_all_is_the_paper() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
        }
        assert!(figure("campaign").is_none() && figure("all").is_none());
        let extras: Vec<&str> = FIGURES
            .iter()
            .filter(|f| !f.in_all)
            .map(|f| f.name)
            .collect();
        assert_eq!(extras, ["xsocket"]);
    }

    #[test]
    fn only_fig2_plans_no_cells() {
        let cellless: Vec<&str> = FIGURES
            .iter()
            .filter(|f| {
                let mut grid = Grid::new(ExperimentScale::default());
                (f.plan)(&mut grid);
                grid.cells() == 0
            })
            .map(|f| f.name)
            .collect();
        assert_eq!(cellless, ["fig2"]);
    }
}
