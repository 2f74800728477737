//! Figure 2 (allocation layout) and Figure 3 (HITM record accuracy
//! characterization).

use std::fmt::Write as _;

use laser_machine::{line_of, Machine, MachineConfig};
use laser_pebs::imprecision::{ImprecisionModel, ImprecisionParams};
use laser_workloads::{characterization_cases, CharacterizationCase};
use serde::json::Value;

use crate::emit::{Column, Emit, Prec, View};

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
            vals.iter().sum::<f64>() / vals.len() as f64 // lint:allow(float-accum) — vals is a Vec summed in index order, which is fixed across runs
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

/// Run the Figure 3 characterization over `cases_per_category` cases per
/// category (the paper uses 40; pass a smaller number for quick runs) on
/// `threads` workers. Sampling is disabled, as in the paper: every
/// ground-truth HITM event is scored after passing through the imprecision
/// model. Each test case is an independent deterministic simulation, so the
/// cases fan out over the campaign runner's
/// [`ordered_parallel`](crate::campaign::ordered_parallel) executor and the
/// report is identical for any thread count.
///
/// # Errors
/// The first case, in case order, that does not finish within the
/// machine's step budget.
pub fn fig3_characterization_on(
    cases_per_category: usize,
    threads: usize,
) -> Result<Fig3Report, String> {
    let mut selected: Vec<CharacterizationCase> = Vec::new();
    for label in CATEGORIES {
        selected.extend(
            characterization_cases()
                .into_iter()
                .filter(|c| c.label() == label)
                .take(cases_per_category),
        );
    }
    let cases = crate::campaign::ordered_parallel(selected.len(), threads, |i| {
        fig3_case(&selected[i], MachineConfig::default())
    });
    Ok(Fig3Report {
        cases: cases.into_iter().collect::<Result<_, _>>()?,
    })
}

/// Score one characterization case on `config`: run it to completion,
/// passing each batch of ground-truth HITM events through the imprecision
/// model as the machine drains it, and count how many records keep the right
/// address and PC.
fn fig3_case(case: &CharacterizationCase, config: MachineConfig) -> Result<Fig3Case, String> {
    let built = case.build();
    let program = built.image.program();
    let mut model = ImprecisionModel::new(
        ImprecisionParams::default(),
        built.image.memory_map(),
        (program.base_pc(), program.end_pc()),
        0xF163 + case.id as u64,
    );
    let (mut events, mut addr_ok, mut pc_ok, mut pc_adj) = (0u64, 0u64, 0u64, 0u64);
    Machine::new(config, &built.image)
        .run_draining(|batch| {
            events += batch.len() as u64;
            for e in batch {
                let r = model.distort(e);
                addr_ok += u64::from(r.data_addr == e.addr);
                pc_ok += u64::from(r.pc == e.pc);
                pc_adj += u64::from(
                    (r.pc as i64 - e.pc as i64).unsigned_abs() <= laser_isa::program::INST_BYTES,
                );
            }
        })
        .map_err(|e| {
            format!(
                "characterization case {} ({}) did not terminate: {e}",
                case.id,
                case.label()
            )
        })?;
    let n = events.max(1) as f64;
    Ok(Fig3Case {
        id: case.id,
        label: case.label(),
        addr_correct: addr_ok as f64 / n,
        pc_exact: pc_ok as f64 / n,
        pc_adjacent: pc_adj as f64 / n,
        events,
    })
}

/// The workload whose argument array Figure 2 lays out.
pub const FIG2_WORKLOAD: &str = "linear_regression";

/// The Figure 2 demonstration: how the allocator lays `lreg_args` structs out
/// across cache lines, with and without the manual alignment fix.
pub fn fig2_layout() -> String {
    use laser_workloads::{find, BuildOptions};
    let spec = find(FIG2_WORKLOAD).expect("workload exists"); // lint:allow(panic) — a missing built-in workload is a bench-table bug, not a runtime condition; reached by figures::tests
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

    #[test]
    fn fig3_reproduces_the_rw_vs_ww_accuracy_gap() {
        let report = fig3_characterization_on(3, 2).unwrap();
        assert_eq!(report.cases.len(), 12);
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
    fn fig3_is_thread_count_independent() {
        let serial = fig3_characterization_on(2, 1).unwrap();
        let parallel = fig3_characterization_on(2, 8).unwrap();
        assert_eq!(serial.cases, parallel.cases);
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn a_case_that_outruns_the_step_budget_is_an_error_naming_it() {
        let case = &characterization_cases()[0];
        let config = MachineConfig {
            max_steps: 10,
            ..MachineConfig::default()
        };
        let err = fig3_case(case, config).unwrap_err();
        assert!(
            err.starts_with(&format!("characterization case {} ", case.id)),
            "{err}"
        );
        assert!(err.contains("within 10 steps"), "{err}");
        // The same case terminates under the default budget.
        assert!(fig3_case(case, MachineConfig::default()).is_ok());
    }

    #[test]
    fn fig2_shows_straddling_without_fix_only() {
        let text = fig2_layout();
        assert!(text.contains("straddles"));
        assert!(text.contains("manual fix"));
    }
}
