//! The campaign-backed figure pipeline's central guarantee: every figure and
//! table derived from a [`Grid`] renders **byte-identically** whether the
//! grid's cells were computed by one worker thread or many, and the
//! machine-readable emissions (JSON/CSV) inherit the same determinism.

use laser_bench::accuracy::{
    fig9_from_grid, plan_fig9, plan_table1, plan_table2, table1_from_grid, table2_from_grid,
};
use laser_bench::characterization::{fig3_from_grid, plan_fig3};
use laser_bench::emit::Emit;
use laser_bench::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig14_from_grid,
    plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14,
};
use laser_bench::xsocket::{plan_xsocket, xsocket_from_grid};
use laser_bench::{CellBudget, ExperimentScale, Grid, GridResult, PipelineConfig, TopologySpec};
use serde::json::Value;

const SAVS: &[u32] = &[1, 19];
const THRESHOLDS: &[f64] = &[32.0, 1024.0, 65536.0];

fn scale() -> ExperimentScale {
    ExperimentScale {
        workload_scale: 0.08,
        only: Some(vec![
            "histogram'",
            "swaptions",
            "linear_regression",
            "dedup",
        ]),
    }
}

/// Plan every figure and table into one grid and run it at `threads`,
/// inline or with every LASER cell's detector stage pipelined.
fn full_grid_with(threads: usize, pipeline: PipelineConfig) -> GridResult {
    let mut grid = Grid::new(scale())
        .with_threads(threads)
        .with_pipeline(pipeline);
    plan_fig3(&mut grid);
    plan_fig9(&mut grid);
    plan_fig10(&mut grid);
    plan_fig11(&mut grid);
    plan_fig12(&mut grid);
    plan_fig13(&mut grid, SAVS);
    plan_fig14(&mut grid);
    plan_table1(&mut grid);
    plan_table2(&mut grid);
    grid.run()
}

/// Plan every figure and table into one grid and run it at `threads`.
fn full_grid(threads: usize) -> GridResult {
    full_grid_with(threads, PipelineConfig::default())
}

/// Render every experiment (text, JSON and CSV) from one grid result.
fn render_all(grid: &GridResult) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, report: &dyn Emit, text: String| {
        out.push((name, text));
        out.push((name, report.to_json().render()));
        out.push((name, report.to_csv()));
    };
    let fig3 = fig3_from_grid(grid).unwrap();
    push("fig3", &fig3, fig3.render());
    let fig9 = fig9_from_grid(grid, THRESHOLDS).unwrap();
    push("fig9", &fig9, fig9.render());
    let fig10 = fig10_from_grid(grid).unwrap();
    push("fig10", &fig10, fig10.render());
    let fig11 = fig11_from_grid(grid).unwrap();
    push("fig11", &fig11, fig11.render());
    let fig12 = fig12_from_grid(grid, 0.0).unwrap();
    push("fig12", &fig12, fig12.render());
    let fig13 = fig13_from_grid(grid, SAVS).unwrap();
    push("fig13", &fig13, fig13.render());
    let fig14 = fig14_from_grid(grid).unwrap();
    push("fig14", &fig14, fig14.render());
    let table1 = table1_from_grid(grid).unwrap();
    push("table1", &table1, table1.render());
    let table2 = table2_from_grid(grid).unwrap();
    push("table2", &table2, table2.render());
    out
}

#[test]
fn every_figure_renders_byte_identically_for_any_thread_count() {
    let serial = full_grid(1);
    let parallel = full_grid(8);
    // The raw grids agree cell by cell...
    assert_eq!(serial.campaign().cells, parallel.campaign().cells);
    // ...and every derived artifact, in every output format, is identical.
    for ((name_a, a), (name_b, b)) in render_all(&serial).into_iter().zip(render_all(&parallel)) {
        assert_eq!(name_a, name_b);
        assert_eq!(a, b, "{name_a} differs between threads=1 and threads=8");
        assert!(!a.is_empty(), "{name_a} rendered empty");
    }
}

#[test]
fn every_figure_json_emission_parses() {
    let grid = full_grid(4);
    for (name, text) in render_all(&grid) {
        if text.starts_with('{') {
            let doc = Value::parse(&text)
                .unwrap_or_else(|e| panic!("{name} JSON does not parse: {e}\n{text}"));
            assert_eq!(
                doc.get("kind"),
                Some(&Value::Str(name.to_string())),
                "{name}"
            );
        }
    }
    // The campaign's own emission parses too.
    let doc = Value::parse(&grid.campaign().to_json().render()).unwrap();
    assert_eq!(doc.get("kind"), Some(&Value::Str("campaign".to_string())));
}

#[test]
fn pipelined_grids_render_every_figure_byte_identically_to_inline() {
    // Pipelined cells are byte-identical to inline cells, so every figure
    // and table derived from a pipelined grid — in text, JSON and CSV alike
    // — must render byte-for-byte the same as the inline reference, at any
    // thread count.
    let reference = full_grid(1);
    for threads in [1, 8] {
        let piped = full_grid_with(threads, PipelineConfig::pipelined());
        assert_eq!(reference.campaign().cells, piped.campaign().cells);
        for ((name_a, a), (name_b, b)) in render_all(&reference).into_iter().zip(render_all(&piped))
        {
            assert_eq!(name_a, name_b);
            assert_eq!(
                a, b,
                "{name_a} differs between inline and pipelined at threads={threads}"
            );
        }
    }
}

#[test]
fn pipelined_budgeted_grids_emit_byte_identically_to_inline() {
    // Budgets and pipelining compose: a budget reads only the machine's step
    // count, so budget-exceeded cells land identically too.
    let budgeted = |threads, pipeline| {
        let mut grid = Grid::new(scale())
            .with_threads(threads)
            .with_cell_budget(CellBudget::steps(10_000))
            .with_pipeline(pipeline);
        plan_fig3(&mut grid);
        plan_fig10(&mut grid);
        plan_table1(&mut grid);
        grid.run()
    };
    let inline = budgeted(1, PipelineConfig::default());
    let piped = budgeted(8, PipelineConfig::pipelined());
    assert_eq!(inline.campaign().cells, piped.campaign().cells);
    assert_eq!(inline.campaign().render(), piped.campaign().render());
    assert_eq!(
        inline.campaign().to_json().render(),
        piped.campaign().to_json().render()
    );
    assert_eq!(inline.campaign().to_csv(), piped.campaign().to_csv());
}

#[test]
fn topology_grids_emit_byte_identically_across_threads_and_pipelining() {
    // A grid carrying the topology axis — figure cells shifted to the
    // 2-socket preset by the grid default, plus the cross-socket sweep's
    // explicit per-topology cells — must derive and emit byte-identically
    // whatever the thread count, pipelined or inline, in all three formats.
    let build = |threads, pipeline| {
        let mut grid = Grid::new(ExperimentScale {
            workload_scale: 0.08,
            only: Some(vec!["histogram'", "swaptions"]),
        })
        .with_threads(threads)
        .with_pipeline(pipeline)
        .with_topology(TopologySpec::DualSocket);
        plan_fig10(&mut grid);
        plan_xsocket(&mut grid);
        grid.run()
    };
    let reference = build(1, PipelineConfig::default());
    let parallel = build(8, PipelineConfig::default());
    let piped = build(8, PipelineConfig::pipelined());
    assert_eq!(reference.campaign().cells, parallel.campaign().cells);
    assert_eq!(reference.campaign().cells, piped.campaign().cells);

    for grid in [&reference, &parallel, &piped] {
        // fig10 derives from the 2-socket cells through the grid default...
        let fig10 = fig10_from_grid(grid).unwrap();
        let xsocket = xsocket_from_grid(grid).unwrap();
        for (name, a, b) in [
            (
                "fig10",
                fig10.render(),
                fig10_from_grid(&reference).unwrap().render(),
            ),
            (
                "xsocket",
                xsocket.render(),
                xsocket_from_grid(&reference).unwrap().render(),
            ),
            ("fig10-json", fig10.to_json().render(), {
                fig10_from_grid(&reference).unwrap().to_json().render()
            }),
            ("xsocket-csv", xsocket.to_csv(), {
                xsocket_from_grid(&reference).unwrap().to_csv()
            }),
        ] {
            assert_eq!(a, b, "{name} differs between grid executions");
            assert!(!a.is_empty());
        }
    }
    // ...and the sweep's own JSON parses with its discriminator.
    let doc = Value::parse(&xsocket_from_grid(&reference).unwrap().to_json().render()).unwrap();
    assert_eq!(doc.get("kind"), Some(&Value::Str("xsocket".to_string())));
}

#[test]
fn budgeted_grids_emit_byte_identically_for_any_thread_count() {
    // Per-cell step budgets are deterministic, so a grid where some cells
    // trip the budget still aggregates — and emits, in every format —
    // byte-identically whatever the thread count.
    let budgeted = |threads| {
        let mut grid = Grid::new(scale())
            .with_threads(threads)
            .with_cell_budget(CellBudget::steps(10_000));
        plan_fig3(&mut grid);
        plan_fig10(&mut grid);
        plan_table1(&mut grid);
        grid.run()
    };
    let serial = budgeted(1);
    let parallel = budgeted(8);
    assert_eq!(serial.campaign().cells, parallel.campaign().cells);
    assert_eq!(serial.campaign().render(), parallel.campaign().render());
    assert_eq!(
        serial.campaign().to_json().render(),
        parallel.campaign().to_json().render()
    );
    assert_eq!(serial.campaign().to_csv(), parallel.campaign().to_csv());
}
