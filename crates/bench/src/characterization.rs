//! Figure 2 (allocation layout) and Figure 3 (HITM record accuracy
//! characterization): Figure 3's cases are ordinary grid cells, each a
//! `chara_{id}` workload under the `pebs-accuracy` tool.

use std::fmt::Write as _;

use laser_core::{CellBudget, TopologySpec};
use laser_machine::{line_of, Machine, MachineConfig};
use laser_pebs::imprecision::{ImprecisionModel, ImprecisionParams};
use laser_workloads::{characterization_cases, CharacterizationCase};
use serde::json::Value;

use crate::emit::{Column, Emit, Prec, View};
use crate::grid::{ExperimentError, Grid, GridResult};
use crate::tool::{PebsAccuracy, ToolFailure, ToolRun, ToolSpec};

/// The four sharing categories of Figure 3, in the paper's order.
const CATEGORIES: [&str; 4] = ["TSRW", "FSRW", "TSWW", "FSWW"];

/// Accuracy of the HITM records of one characterization test case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Case {
    /// Case id.
    pub id: usize,
    /// Category label ("TSRW", "FSRW", "TSWW", "FSWW").
    pub label: &'static str,
    /// Fraction of records with the correct data address.
    pub addr_correct: f64,
    /// Fraction of records with the exact PC.
    pub pc_exact: f64,
    /// Fraction of records with the exact or an adjacent PC.
    pub pc_adjacent: f64,
    /// Ground-truth HITM events observed.
    pub events: u64,
}

/// The Figure 3 report: per-case accuracies plus per-category averages.
#[derive(Debug, Clone, Default)]
pub struct Fig3Report {
    /// Every test case.
    pub cases: Vec<Fig3Case>,
}

impl Fig3Report {
    /// Average of a metric over one category.
    pub fn category_mean(&self, label: &str, metric: impl Fn(&Fig3Case) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.label == label)
            .map(metric)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// JSON names a case `id`, the text and CSV tables `case`.
const FIG3_COLUMNS: &[Column] = &[
    Column::json_only("id"),
    Column::left("case", "case", 6).json(Prec::Omit),
    Column::right("category", "cat", 6),
    Column::right("addr_correct", "addr_ok%", 12).text(Prec::Hundred(1)),
    Column::right("pc_exact", "pc_ok%", 10).text(Prec::Hundred(1)),
    Column::right("pc_adjacent", "pc_adj_ok%", 12).text(Prec::Hundred(1)),
    Column::data("events"),
];

/// One accuracy of a case.
type Metric = fn(&Fig3Case) -> f64;

/// The three accuracies Figure 3 scores, by JSON key.
const METRICS: [(&str, Metric); 3] = [
    ("addr_correct", |c| c.addr_correct),
    ("pc_exact", |c| c.pc_exact),
    ("pc_adjacent", |c| c.pc_adjacent),
];

impl Emit for Fig3Report {
    /// One scatter row per case.
    fn view(&self) -> View {
        let title = "Figure 3: HITM record accuracy per test case\n";
        let view = View::new("fig3", title, FIG3_COLUMNS, &self.cases, |c| {
            let mut row = vec![c.id.into(), c.id.into(), c.label.into()];
            row.extend(METRICS.map(|(_, metric)| metric(c).into()));
            row.push(c.events.into());
            row
        });
        View {
            rows_key: "cases",
            ..view
        }
    }

    /// The cases, then the category averages the paper quotes in prose.
    fn render(&self) -> String {
        let mut out = self.view().text();
        out.push_str("\ncategory averages:\n");
        for label in CATEGORIES {
            let [addr, pc, adjacent] = METRICS.map(|(_, m)| self.category_mean(label, m) * 100.0);
            let _ = writeln!(
                out,
                "  {label}: addr {addr:.0}%  pc {pc:.0}%  pc+adjacent {adjacent:.0}%"
            );
        }
        out
    }

    /// The cases, then the category averages.
    fn to_json(&self) -> Value {
        let averages = CATEGORIES.map(|label| {
            METRICS
                .iter()
                .fold(Value::object().set("category", label), |v, (key, m)| {
                    v.set(key, self.category_mean(label, m))
                })
        });
        self.view()
            .json()
            .set("category_averages", Value::Array(averages.into()))
    }
}

/// How many cases per category `experiments fig3` scores at input scale
/// `scale`: the paper's 40, or 5 for the quick runs below 0.2.
pub fn fig3_cases_per_category(scale: f64) -> usize {
    if scale < 0.2 {
        5
    } else {
        40
    }
}

/// The cases Figure 3 scores at input scale `scale`, in report order: the
/// first [`fig3_cases_per_category`] of each category.
fn fig3_cases(scale: f64) -> Vec<CharacterizationCase> {
    let all = characterization_cases();
    CATEGORIES
        .iter()
        .flat_map(|&label| {
            all.iter()
                .filter(move |c| c.label() == label)
                .take(fig3_cases_per_category(scale))
                .copied()
        })
        .collect()
}

/// Request Figure 3's cells: each scored case as a `chara_{id}` workload
/// under [`ToolSpec::PebsAccuracy`]. The characterization is defined on the
/// flat machine, so a grid on another topology plans nothing.
pub fn plan_fig3(grid: &mut Grid) {
    if grid.topology() != TopologySpec::Flat {
        return;
    }
    for case in fig3_cases(grid.scale().workload_scale) {
        grid.request(&case.spec(), ToolSpec::PebsAccuracy);
    }
}

/// Figure 3 from its cells: each case's record counts over its ground-truth
/// HITM events.
///
/// # Errors
/// The first case, in report order, whose cell is missing or failed (a
/// case that outruns the machine's step budget or the cell budget).
pub fn fig3_from_grid(grid: &GridResult) -> Result<Fig3Report, ExperimentError> {
    let cases = fig3_cases(grid.scale().workload_scale)
        .iter()
        .map(|case| {
            let workload = case.spec().name;
            let run = grid.tool_run(workload, ToolSpec::PebsAccuracy)?;
            let counts = run.pebs_accuracy.ok_or_else(|| ExperimentError::Cell {
                workload: workload.to_string(),
                tool: ToolSpec::PebsAccuracy.key(),
                failure: ToolFailure::Error("the run carries no accuracy counts".to_string()),
            })?;
            let n = run.hitm_events.max(1) as f64;
            Ok(Fig3Case {
                id: case.id,
                label: case.label(),
                addr_correct: counts.addr_correct as f64 / n,
                pc_exact: counts.pc_exact as f64 / n,
                pc_adjacent: counts.pc_adjacent as f64 / n,
                events: run.hitm_events,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Fig3Report { cases })
}

/// Score one characterization case on `config` (the `pebs-accuracy` cell,
/// [`ToolSpec::PebsAccuracy`]), then hold the finished run to `budget`.
/// Sampling is off, as in the paper: the case runs to completion, every
/// ground-truth HITM event passes through the imprecision model as the
/// machine drains it, and the cell counts how many records keep the right
/// address and PC.
pub(crate) fn score_case(
    case: &CharacterizationCase,
    config: MachineConfig,
    budget: CellBudget,
) -> Result<ToolRun, ToolFailure> {
    let built = case.build();
    let program = built.image.program();
    let mut model = ImprecisionModel::new(
        ImprecisionParams::default(),
        built.image.memory_map(),
        (program.base_pc(), program.end_pc()),
        0xF163 + case.id as u64,
    );
    let (mut events, mut counts) = (0u64, PebsAccuracy::default());
    let result = Machine::new(config, &built.image)
        .run_draining(|batch| {
            events += batch.len() as u64;
            for e in batch {
                let r = model.distort(e);
                counts.addr_correct += u64::from(r.data_addr == e.addr);
                counts.pc_exact += u64::from(r.pc == e.pc);
                counts.pc_adjacent += u64::from(
                    (r.pc as i64 - e.pc as i64).unsigned_abs() <= laser_isa::program::INST_BYTES,
                );
            }
        })
        .map_err(|e| {
            ToolFailure::Error(format!(
                "characterization case {} ({}) did not terminate: {e}",
                case.id,
                case.label()
            ))
        })?;
    budget.check(result.steps)?;
    Ok(ToolRun {
        cycles: result.cycles,
        hitm_events: events,
        hitm_remote: result.stats.hitm_remote,
        pebs_accuracy: Some(counts),
        ..ToolRun::default()
    })
}

/// The workload whose argument array Figure 2 lays out.
pub const FIG2_WORKLOAD: &str = "linear_regression";

/// The Figure 2 demonstration: how the allocator lays `lreg_args` structs out
/// across cache lines, with and without the manual alignment fix.
pub fn fig2_layout() -> String {
    use laser_workloads::{find, BuildOptions};
    #[expect(
        clippy::expect_used,
        reason = "a missing built-in workload is a bench-table bug, not a runtime condition; reached by figures::tests"
    )]
    let spec = find(FIG2_WORKLOAD).expect("workload exists");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: allocator layout of the {FIG2_WORKLOAD} args array\n"
    );
    for (title, opts) in [
        ("default malloc layout (buggy)", BuildOptions::default()),
        ("cache-line aligned (manual fix)", BuildOptions::fixed()),
    ] {
        let image = spec.build(&opts);
        let _ = writeln!(out, "{title}:");
        for (t, thread) in image.threads().iter().enumerate() {
            let base = thread
                .regs
                .iter()
                .find(|(r, _)| *r == laser_workloads::common::regs::DATA)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            let first_line = line_of(base);
            let last_line = line_of(base + 63);
            let _ = writeln!(
                out,
                "  lreg_args[{t}] at {base:#x}: spans cache line(s) {first_line:#x}{}",
                if first_line == last_line {
                    String::new()
                } else {
                    format!(" and {last_line:#x}  <-- straddles, shared with neighbour")
                }
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use crate::grid::single_figure;
    use crate::runner::ExperimentScale;

    #[test]
    fn fig3_reproduces_the_rw_vs_ww_accuracy_gap() {
        let scale = ExperimentScale {
            workload_scale: 0.1,
            only: None,
        };
        let report = single_figure(scale, plan_fig3, fig3_from_grid).unwrap();
        assert_eq!(report.cases.len(), 20);
        // RW (load-triggered) records are far more accurate than WW
        // (store-triggered) ones, as in the paper's Figure 3.
        let rw_addr = (report.category_mean("TSRW", |c| c.addr_correct)
            + report.category_mean("FSRW", |c| c.addr_correct))
            / 2.0;
        let ww_addr = (report.category_mean("TSWW", |c| c.addr_correct)
            + report.category_mean("FSWW", |c| c.addr_correct))
            / 2.0;
        assert!(rw_addr > 0.6, "rw addr accuracy {rw_addr}");
        assert!(ww_addr < 0.35, "ww addr accuracy {ww_addr}");
        let rw_adj = report.category_mean("FSRW", |c| c.pc_adjacent);
        assert!(rw_adj > 0.55, "rw adjacent-pc accuracy {rw_adj}");
        assert!(!report.render().is_empty());
    }

    #[test]
    fn a_case_that_outruns_the_step_budget_is_an_error_naming_it() {
        let case = &characterization_cases()[0];
        let config = MachineConfig {
            max_steps: 10,
            ..MachineConfig::default()
        };
        let Err(ToolFailure::Error(err)) = score_case(case, config, CellBudget::default()) else {
            panic!("a case cut at 10 steps must be an error cell");
        };
        assert!(
            err.starts_with(&format!("characterization case {} ", case.id)),
            "{err}"
        );
        assert!(err.contains("within 10 steps"), "{err}");
        // The same case terminates under the default budget.
        assert!(score_case(case, MachineConfig::default(), CellBudget::default()).is_ok());
    }

    #[test]
    fn pebs_accuracy_on_a_registry_workload_is_an_error_cell() {
        let spec = laser_workloads::find("histogram'").unwrap();
        let opts = laser_workloads::BuildOptions::scaled(0.08);
        let cell = CellConfig::flat(spec.name, "pebs-accuracy", &opts);
        assert_eq!(
            ToolSpec::PebsAccuracy.run(&spec, &cell),
            Err(ToolFailure::Error(
                "histogram' is not a characterization case".to_string()
            ))
        );
        // Through a campaign, too: one error cell, no panic.
        let mut grid = Grid::with_config(crate::config::CampaignConfig {
            opts,
            threads: std::num::NonZeroUsize::new(1),
            ..crate::config::CampaignConfig::default()
        });
        grid.request(&spec, ToolSpec::PebsAccuracy);
        let result = grid.run().into_campaign();
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].status(), "error");
    }

    #[test]
    fn fig3_plans_nothing_off_the_flat_machine() {
        let mut grid =
            Grid::new(ExperimentScale::default()).with_topology(TopologySpec::DualSocket);
        plan_fig3(&mut grid);
        assert_eq!(grid.cells(), 0);
        let mut grid = Grid::new(ExperimentScale::default());
        plan_fig3(&mut grid);
        assert_eq!(grid.cells(), 160);
    }

    #[test]
    fn fig2_shows_straddling_without_fix_only() {
        let text = fig2_layout();
        assert!(text.contains("straddles"));
        assert!(text.contains("manual fix"));
    }
}
