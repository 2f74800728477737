//! The campaign runner's central guarantee: fanning a `workload × tool` grid
//! across a thread pool changes nothing but the wall-clock. A campaign run
//! with `threads = 1` (the reference serial execution) and with `threads = N`
//! must produce byte-identical aggregated results — including when per-cell
//! budgets are enabled, and including a single session's outcome, which is
//! identical whether it runs inline, on a worker thread or pipelined.

use std::num::NonZeroUsize;

use laser_bench::{CampaignConfig, Emit, Grid, PipelineConfig, ToolSpec, TopologySpec};
use laser_core::{CellBudget, Laser, LaserConfig, LaserOutcome, StopReason};
use laser_workloads::{find, BuildOptions};

const TOOLS: [ToolSpec; 4] = [
    ToolSpec::Native,
    ToolSpec::LaserDetect,
    ToolSpec::Vtune,
    ToolSpec::SheriffDetect,
];

/// Every tool of [`TOOLS`] on three workloads at scale 0.08, workload-major,
/// on `threads` workers, with `deploy` applied to the config.
fn campaign_with(threads: usize, deploy: impl FnOnce(&mut CampaignConfig)) -> Grid {
    let mut config = CampaignConfig {
        opts: BuildOptions::scaled(0.08),
        threads: NonZeroUsize::new(threads),
        ..CampaignConfig::default()
    };
    deploy(&mut config);
    let mut grid = Grid::with_config(config);
    for workload in ["histogram'", "swaptions", "linear_regression"] {
        for tool in TOOLS {
            grid.request(&find(workload).expect("known workload"), tool);
        }
    }
    grid
}

fn campaign(threads: usize) -> Grid {
    campaign_with(threads, |_| {})
}

fn piped(config: &mut CampaignConfig) {
    config.pipeline = PipelineConfig::pipelined();
}

#[test]
fn single_and_multi_threaded_campaigns_are_byte_identical() {
    let serial = campaign(1).run().into_campaign();
    let parallel = campaign(8).run().into_campaign();

    // Structural equality of every cell...
    assert_eq!(serial.cells, parallel.cells);
    // ...and byte-identical rendered output.
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.cells.len(), 12);
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Two parallel runs with the same thread count also agree — there is no
    // hidden dependence on scheduling at all.
    let a = campaign(4).run().into_campaign();
    let b = campaign(4).run().into_campaign();
    assert_eq!(a.cells, b.cells);
    assert_eq!(a.render(), b.render());
}

/// Everything a session produces that its deployment could move.
fn assert_same_outcome(a: &LaserOutcome, b: &LaserOutcome) {
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.run.per_core_cycles, b.run.per_core_cycles);
    assert_eq!(a.run.stats, b.run.stats);
    assert_eq!(a.report, b.report);
    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    assert_eq!(a.detector_cycles, b.detector_cycles);
    assert_eq!(a.driver_stats, b.driver_stats);
    assert_eq!(
        a.repair.as_ref().map(|r| (r.triggered_at_cycle, r.stats)),
        b.repair.as_ref().map(|r| (r.triggered_at_cycle, r.stats))
    );
}

#[test]
fn session_outcome_is_identical_inline_and_on_a_worker_thread() {
    let spec = find("histogram'").expect("known workload");
    let image = spec.build(&BuildOptions::scaled(0.08));
    let config = LaserConfig::detection_only();

    let inline = Laser::builder()
        .config(config.clone())
        .build(&image)
        .run()
        .unwrap();
    let session = Laser::builder().config(config).build(&image);
    let moved = std::thread::spawn(move || session.run().unwrap())
        .join()
        .unwrap();
    assert_same_outcome(&inline, &moved);
}

#[test]
fn pipelined_campaigns_are_byte_identical_to_inline_for_any_thread_count() {
    // The tentpole guarantee of the pipelined session: moving the detector
    // stage to a worker thread changes the wall-clock and nothing else. A
    // pipelined campaign must aggregate and render byte-identically to the
    // inline reference — serial or fanned across workers, with the inline
    // serial run as the common baseline.
    let reference = campaign(1).run().into_campaign();
    let piped_serial = campaign_with(1, piped).run().into_campaign();
    let piped_parallel = campaign_with(8, piped).run().into_campaign();

    assert_eq!(reference.cells, piped_serial.cells);
    assert_eq!(reference.cells, piped_parallel.cells);
    assert_eq!(reference.render(), piped_serial.render());
    assert_eq!(reference.render(), piped_parallel.render());
    assert_eq!(
        reference.to_json().render(),
        piped_parallel.to_json().render()
    );
    assert_eq!(reference.to_csv(), piped_parallel.to_csv());
}

#[test]
fn pipelined_session_outcome_is_identical_to_inline() {
    // Detection-only sessions get a detector worker, repair sessions stay
    // inline; either way the outcome cannot tell. A budget reads only the
    // machine's step count, so a budgeted pipelined session stops at the
    // same quantum with the same reason as inline.
    let spec = find("histogram'").expect("known workload");
    let image = spec.build(&BuildOptions::scaled(0.08));
    for config in [LaserConfig::detection_only(), LaserConfig::default()] {
        let run = |pipeline, budget| {
            let session = Laser::builder()
                .config(config.clone())
                .pipeline_config(pipeline)
                .budget(budget)
                .build(&image);
            assert_eq!(
                session.is_pipelined(),
                pipeline.enabled && !config.enable_repair
            );
            session.run()
        };
        let unlimited = CellBudget::default();
        let inline = run(PipelineConfig::default(), unlimited).unwrap();
        let piped = run(PipelineConfig::pipelined(), unlimited).unwrap();
        assert_same_outcome(&inline, &piped);

        let budget = CellBudget::steps(inline.run.steps / 2);
        let stopped = run(PipelineConfig::default(), budget).unwrap_err();
        assert!(matches!(
            stopped,
            laser_core::LaserError::Stopped(StopReason::StepBudget { used, .. })
                if used > inline.run.steps / 2
        ));
        assert_eq!(
            stopped,
            run(PipelineConfig::pipelined(), budget).unwrap_err()
        );
    }
}

#[test]
fn topology_campaigns_are_byte_identical_across_thread_counts_and_pipelining() {
    // The topology axis composes with everything the campaign runner
    // guarantees: a 2-socket campaign aggregates and renders byte-identically
    // whatever the thread count, pipelined or inline, in all three formats.
    let dual = |config: &mut CampaignConfig| config.topology = TopologySpec::DualSocket;
    let reference = campaign_with(1, dual).run().into_campaign();
    let parallel = campaign_with(8, dual).run().into_campaign();
    let piped = campaign_with(8, |config| {
        dual(config);
        piped(config);
    })
    .run()
    .into_campaign();

    assert_eq!(reference.cells, parallel.cells);
    assert_eq!(reference.cells, piped.cells);
    assert_eq!(reference.render(), piped.render());
    assert_eq!(reference.to_json().render(), piped.to_json().render());
    assert_eq!(reference.to_csv(), piped.to_csv());

    // The axis is real, not a relabel: cells carry the @2s key, and the
    // contended workloads show cross-socket traffic a flat campaign cannot.
    assert!(reference.cells.iter().all(|c| c.tool.ends_with("@2s")));
    let flat = campaign(1).run().into_campaign();
    let (hot_2s, hot_flat) = (
        reference.cell("histogram'", "native@2s").unwrap(),
        flat.cell("histogram'", "native").unwrap(),
    );
    assert!(hot_2s.outcome.as_ref().unwrap().hitm_remote > 0);
    assert_eq!(hot_flat.outcome.as_ref().unwrap().hitm_remote, 0);
    assert_ne!(
        hot_2s.outcome.as_ref().unwrap().cycles,
        hot_flat.outcome.as_ref().unwrap().cycles
    );
}

#[test]
fn pipelined_budgeted_campaigns_match_inline_budgeted_campaigns() {
    // A budget reads only the machine's step count, which deployment does
    // not move, so the same cells trip the same budgets at the same points
    // whatever the execution mode or thread count.
    let budget = CellBudget::steps(10_000);
    let inline = campaign_with(1, |config| config.budget = budget)
        .run()
        .into_campaign();
    let piped = campaign_with(8, |config| {
        config.budget = budget;
        piped(config);
    })
    .run()
    .into_campaign();
    assert_eq!(inline.cells, piped.cells);
    assert_eq!(inline.render(), piped.render());
    assert_eq!(inline.to_json().render(), piped.to_json().render());
    assert_eq!(inline.to_csv(), piped.to_csv());
    assert!(
        inline.cells.iter().any(|c| c.status() == "budget-exceeded"),
        "budget should trip for at least one cell"
    );
}

#[test]
fn three_stage_campaigns_at_lag_zero_are_byte_identical_to_inline() {
    // The name is historical (and pinned): the pipeline is app + driver on
    // the machine thread and one detector thread, and every charge lands at
    // the boundary inline charges it. The whole campaign — budgeted or not,
    // in every format — must come out byte-identical to the inline
    // reference.
    let budget = CellBudget::steps(10_000);
    for (reference, pipelined) in [
        (
            campaign(1).run().into_campaign(),
            campaign_with(8, piped).run().into_campaign(),
        ),
        // Budgets read only the machine's step count, so the same cells
        // trip the same budgets at the same points.
        (
            campaign_with(1, |config| config.budget = budget)
                .run()
                .into_campaign(),
            campaign_with(8, |config| {
                piped(config);
                config.budget = budget;
            })
            .run()
            .into_campaign(),
        ),
    ] {
        assert_eq!(reference.cells, pipelined.cells);
        assert_eq!(reference.render(), pipelined.render());
        assert_eq!(reference.to_json().render(), pipelined.to_json().render());
        assert_eq!(reference.to_csv(), pipelined.to_csv());
    }
}

#[test]
fn budgeted_campaigns_are_byte_identical_for_any_thread_count() {
    // A step budget that some cells trip and others survive: the grid must
    // aggregate identically — including the budget-exceeded cells — whatever
    // the thread count, in the text, JSON and CSV emissions alike.
    let budget = CellBudget::steps(10_000);
    let serial = campaign_with(1, |config| config.budget = budget)
        .run()
        .into_campaign();
    let parallel = campaign_with(8, |config| config.budget = budget)
        .run()
        .into_campaign();

    assert_eq!(serial.cells, parallel.cells);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_json().render(), parallel.to_json().render());
    assert_eq!(serial.to_csv(), parallel.to_csv());

    // The budget did something (this is not vacuous determinism)...
    assert!(
        serial.cells.iter().any(|c| c.status() == "budget-exceeded"),
        "budget should trip for at least one cell:\n{}",
        serial.render()
    );
    // ...without disturbing the cells that fit inside it.
    let unbudgeted = campaign(4).run().into_campaign();
    for (with_budget, without) in serial.cells.iter().zip(&unbudgeted.cells) {
        if with_budget.outcome.is_ok() {
            assert_eq!(with_budget, without);
        }
    }
}
