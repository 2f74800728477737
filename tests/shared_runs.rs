//! Cells lowered from `ToolSpec` requests share simulations: a campaign runs
//! one LASER session for a workload's `laser`, `laser-detect`,
//! `laser-detect-raw` and `laser-detect-sav19` cells, and one native run for
//! its `native` and Sheriff cells. This suite holds every such derived cell
//! to the cell an unshared run produces: the same planned grids, every cell
//! re-run on its own by `ToolSpec::run`. Inline and pipelined, at 1 and 4
//! worker threads, unbudgeted and under step budgets that stop LASER cells
//! before and after repair attaches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use laser_bench::xsocket::plan_xsocket;
use laser_bench::{
    CampaignConfig, CellBudget, CellResult, ExperimentScale, Grid, PipelineConfig, ToolFailure,
    ToolSpec, TopologySpec, FIGURES,
};
use laser_core::{Laser, LaserConfig, SessionStatus};
use laser_workloads::{characterization_cases, find, registry, BuildOptions, WorkloadSpec};

/// The planners of one grid.
type Plan = fn(&mut Grid);

/// Every figure `experiments all` plans.
fn paper(grid: &mut Grid) {
    for figure in FIGURES.iter().filter(|f| f.in_all) {
        (figure.plan)(grid);
    }
}

/// The paper grid and the cross-socket sweep, on one grid.
fn paper_and_xsocket(grid: &mut Grid) {
    paper(grid);
    plan_xsocket(grid);
}

/// `plan` on a grid at `scale` over `only` (every workload when `None`).
fn grouped(
    scale: f64,
    only: Option<&'static [&'static str]>,
    plan: Plan,
    threads: usize,
    pipeline: PipelineConfig,
    budget: CellBudget,
) -> Vec<CellResult> {
    let mut grid = Grid::new(ExperimentScale {
        workload_scale: scale,
        only: only.map(<[_]>::to_vec),
    })
    .with_threads(threads)
    .with_pipeline(pipeline)
    .with_cell_budget(budget);
    plan(&mut grid);
    grid.run().campaign().cells.clone()
}

/// The registry, then every characterization case Figure 3 can plan.
fn workloads_and_cases() -> Vec<WorkloadSpec> {
    let mut workloads = registry();
    workloads.extend(characterization_cases().iter().map(|case| case.spec()));
    workloads
}

/// Every cell of `cells` again, each simulated on its own by
/// [`ToolSpec::run`], inline, on four threads. Returned in the order of
/// `cells`.
fn unshared(cells: &[CellResult], scale: f64, budget: CellBudget) -> Vec<CellResult> {
    let config = CampaignConfig {
        opts: BuildOptions::scaled(scale),
        budget,
        ..CampaignConfig::default()
    };
    let workloads = workloads_and_cases();
    let alone = |cell: &CellResult| {
        let (key, topology) = cell.tool.split_once('@').unwrap_or((&cell.tool, "flat"));
        let spec = ToolSpec::parse(key).expect("a planned tool key");
        let topology = TopologySpec::parse(topology).expect("a planned topology");
        let workload = workloads
            .iter()
            .find(|w| w.name == cell.workload)
            .expect("a planned workload");
        let cell_config = config.cell(workload.name, key, topology);
        CellResult {
            workload: cell.workload.clone(),
            tool: cell_config.cell_key(),
            outcome: spec.run(workload, &cell_config),
        }
    };
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![None; cells.len()]);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = alone(cell);
                done.lock().unwrap()[i] = Some(result);
            });
        }
    });
    done.into_inner()
        .unwrap()
        .into_iter()
        .map(|cell| cell.expect("every cell ran"))
        .collect()
}

/// The grid of `plan` at `scale`, grouped inline and pipelined at 1 and 4
/// threads, cell for cell equal to the unshared run.
fn assert_sharing_is_invisible(
    scale: f64,
    only: Option<&'static [&'static str]>,
    plan: Plan,
    budget: CellBudget,
) -> Vec<CellResult> {
    let reference = grouped(scale, only, plan, 4, PipelineConfig::default(), budget);
    let unshared = unshared(&reference, scale, budget);
    assert_eq!(reference.len(), unshared.len());
    for (shared, alone) in reference.iter().zip(&unshared) {
        assert_eq!(shared, alone, "{} × {}", alone.workload, alone.tool);
    }
    for pipeline in [PipelineConfig::default(), PipelineConfig::pipelined()] {
        for threads in [1, 4] {
            let cells = grouped(scale, only, plan, threads, pipeline, budget);
            assert!(
                cells == reference,
                "threads {threads}, pipelined {}",
                pipeline.enabled
            );
        }
    }
    reference
}

fn cell<'a>(cells: &'a [CellResult], workload: &str, tool: &str) -> &'a CellResult {
    cells
        .iter()
        .find(|c| c.workload == workload && c.tool == tool)
        .unwrap_or_else(|| panic!("{workload} × {tool} was planned"))
}

#[test]
fn the_paper_grid_and_the_xsocket_sweep_match_one_simulation_per_cell() {
    let cells = assert_sharing_is_invisible(0.1, None, paper_and_xsocket, CellBudget::default());
    // Every sharing group is present: the four LASER derivations (Figure 13
    // sweeps the SAV on dedup) and the two Sheriff projections of a native
    // run.
    for (workload, tool) in [
        ("histogram'", "laser"),
        ("histogram'", "laser-detect"),
        ("histogram'", "laser-detect-raw"),
        ("dedup", "laser-detect"),
        ("dedup", "laser-detect-sav19"),
        ("histogram'", "sheriff-detect"),
        ("histogram'", "sheriff-protect"),
        ("histogram'", "laser@8s"),
    ] {
        assert!(
            cell(&cells, workload, tool).outcome.is_ok(),
            "{workload} × {tool}"
        );
    }
    // Somewhere the raw cell keeps lines the threshold drops, so the
    // re-applied threshold is exercised.
    let lines = |workload: &str, tool| match &cell(&cells, workload, tool).outcome {
        Ok(run) => run.reported.len(),
        Err(failure) => panic!("{failure}"),
    };
    assert!(cells
        .iter()
        .filter(|c| c.tool == "laser-detect-raw")
        .any(|c| lines(&c.workload, "laser-detect-raw") > lines(&c.workload, "laser-detect")));

    // Each figure on its own forms smaller groups (Table 1 has
    // Sheriff-Detect without Sheriff-Protect, Figure 9 raw detection
    // without the rest), and computes the same cells.
    for figure in FIGURES.iter().filter(|f| f.in_all) {
        let mut grid = Grid::new(ExperimentScale {
            workload_scale: 0.1,
            only: None,
        })
        .with_threads(4);
        (figure.plan)(&mut grid);
        for alone in &grid.run().campaign().cells {
            assert_eq!(
                cell(&cells, &alone.workload, &alone.tool),
                alone,
                "{}",
                figure.name
            );
        }
    }
}

/// The repairing workloads at a scale where LASERREPAIR attaches to both.
const REPAIRED: &[&str] = &["histogram'", "linear_regression"];
const REPAIR_SCALE: f64 = 1.0;

/// Retired steps of the quanta of `histogram'`'s repairing session up to
/// the quantum repair attaches in, and of the whole run.
fn histogram_attach_steps() -> (u64, u64) {
    let image = find("histogram'")
        .expect("a registry workload")
        .build(&BuildOptions::scaled(REPAIR_SCALE));
    let mut session = Laser::builder()
        .config(LaserConfig::default())
        .build(&image);
    let mut attached = None;
    loop {
        let status = session.advance().expect("the repairing session runs");
        if attached.is_none() && session.repair_triggered() {
            attached = Some(session.machine().steps());
        }
        match status {
            SessionStatus::Running => {}
            SessionStatus::Done => break,
            SessionStatus::Stopped(reason) => panic!("an unbudgeted session stopped: {reason}"),
        }
    }
    let total = session.machine().steps();
    (attached.expect("repair attaches to histogram'"), total)
}

#[test]
fn repaired_groups_match_one_simulation_per_cell_budgeted_or_not() {
    let cells =
        assert_sharing_is_invisible(REPAIR_SCALE, Some(REPAIRED), paper, CellBudget::default());
    for workload in REPAIRED {
        match &cell(&cells, workload, "laser").outcome {
            Ok(run) => assert!(run.repair_invoked, "{workload}"),
            Err(failure) => panic!("{workload}: {failure}"),
        }
    }

    // Stopped long before repair could attach: every LASER cell trips.
    let cells = assert_sharing_is_invisible(
        REPAIR_SCALE,
        Some(REPAIRED),
        paper,
        CellBudget::steps(5_000),
    );
    assert!(matches!(
        cell(&cells, "histogram'", "laser").outcome,
        Err(ToolFailure::BudgetExceeded { .. })
    ));

    // Stopped after repair attached to histogram': its repairing session
    // trips, and its detection cells come from a session of their own.
    let (attached, total) = histogram_attach_steps();
    let budget = attached + (total - attached) / 2;
    assert!(
        attached < budget && budget < total,
        "{attached} < {budget} < {total}"
    );
    let cells = assert_sharing_is_invisible(
        REPAIR_SCALE,
        Some(REPAIRED),
        paper,
        CellBudget::steps(budget),
    );
    assert!(matches!(
        cell(&cells, "histogram'", "laser").outcome,
        Err(ToolFailure::BudgetExceeded { .. })
    ));
}
