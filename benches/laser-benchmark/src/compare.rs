//! `compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both medians and quartiles and a verdict. This is what an A/A acceptance
//! run and every later before/after claim are read with.

use serde::json::Value;

use crate::measure::WorkloadResult;
use crate::metrics::{EndToEnd, TimeBase, END_TO_END};
use crate::report::{items_of, worse_by};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host time) or equal (simulated).
    Same,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Moved by more than the bound, but the run-to-run spread is wider than
    /// the bound and the two sets of runs overlap: not a finding either way.
    Unresolved,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a` for one metric.
pub fn judge(def: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse = worse_by(def.better, a.median, b.median);
    if def.base == TimeBase::Sim {
        // Simulated numbers repeat exactly: any difference is a finding.
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Same,
        };
    }
    if worse.abs() <= def.bound {
        return Verdict::Same;
    }
    let overlap = a.min <= b.max && b.min <= a.max;
    if a.spread().max(b.spread()) > def.bound && overlap {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

/// Failed operations compare as shares of the operations attempted.
fn judge_failures(a: &WorkloadResult, b: &WorkloadResult) -> (f64, f64, Verdict) {
    let share = |r: &WorkloadResult| r.failed_ops as f64 / r.ops.max(1) as f64;
    let (sa, sb) = (share(a), share(b));
    let verdict = if sb > sa || (a.correct && !b.correct) {
        Verdict::Regressed
    } else if sb < sa {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (sa, sb, verdict)
}

fn workloads_of(doc: &Value) -> Result<Vec<WorkloadResult>, String> {
    items_of(doc, "workloads")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

/// Compare two result documents. Returns the table and whether any row
/// regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (a, b) = (workloads_of(a)?, workloads_of(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change"
    );
    for ra in &a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            let _ = writeln!(out, "{:<18} missing from B", ra.workload);
            regressed = true;
            continue;
        };
        for def in END_TO_END {
            let find = |r: &WorkloadResult| {
                r.end_to_end
                    .iter()
                    .find(|(name, _)| name == def.name)
                    .map(|(_, samples)| Summary::of(samples))
            };
            let (Some(sa), Some(sb)) = (find(ra), find(rb)) else {
                let _ = writeln!(
                    out,
                    "{:<18} {:<18} missing on one side",
                    ra.workload, def.name
                );
                regressed = true;
                continue;
            };
            let verdict = judge(def, &sa, &sb);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>14.6} {:>14.6} {:>14.6} | {:>14.6} {:>14.6} {:>14.6} {:>+7.2}%  {}",
                ra.workload,
                def.name,
                sa.q1,
                sa.median,
                sa.q3,
                sb.q1,
                sb.median,
                sb.q3,
                100.0 * worse_by(def.better, sa.median, sb.median),
                verdict.key(),
            );
        }
        let (sa, sb, verdict) = judge_failures(ra, rb);
        regressed |= verdict == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{:<18} {:<18} {:>14} {:>14.6} {:>14} | {:>14} {:>14.6} {:>14} {:>8}  {}",
            ra.workload,
            "failed_ops/ops",
            "",
            sa,
            "",
            "",
            sb,
            "",
            "",
            verdict.key(),
        );
    }
    let _ = writeln!(
        out,
        "change = how much worse B's median is than A's, in the metric's own direction \
         (negative = better)."
    );
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    fn host(bound: f64, better: Better) -> EndToEnd {
        EndToEnd {
            name: "cpu_s",
            unit: "s",
            better,
            bound,
            base: TimeBase::Host,
            what: "",
        }
    }

    #[test]
    fn host_metrics_compare_against_the_bound() {
        let def = host(0.10, Better::Lower);
        let a = Summary::of(&[1.00, 1.01, 1.02, 0.99, 1.00]);
        assert_eq!(
            judge(&def, &a, &Summary::of(&[1.05, 1.06, 1.04, 1.05, 1.05])),
            Verdict::Same
        );
        assert_eq!(
            judge(&def, &a, &Summary::of(&[1.25, 1.26, 1.24, 1.25, 1.25])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def, &a, &Summary::of(&[0.80, 0.81, 0.79, 0.80, 0.80])),
            Verdict::Improved
        );
        // Wide, overlapping runs: more than the bound apart, but not a finding.
        let noisy_a = Summary::of(&[1.0, 1.4, 0.8, 1.2, 1.0]);
        let noisy_b = Summary::of(&[1.2, 1.5, 0.9, 1.3, 1.2]);
        assert_eq!(judge(&def, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Wide but disjoint: every run of B is worse than every run of A.
        let far_b = Summary::of(&[2.0, 2.6, 1.9, 2.2, 2.0]);
        assert_eq!(judge(&def, &noisy_a, &far_b), Verdict::Regressed);
        // Higher-is-better flips the direction.
        let def = host(0.10, Better::Higher);
        assert_eq!(
            judge(&def, &a, &Summary::of(&[1.25, 1.26, 1.24, 1.25, 1.25])),
            Verdict::Improved
        );
    }

    #[test]
    fn simulated_metrics_compare_by_equality() {
        let def = END_TO_END
            .iter()
            .find(|e| e.name == "sim_overhead")
            .unwrap();
        let a = Summary::of(&[1.02]);
        assert_eq!(judge(def, &a, &Summary::of(&[1.02])), Verdict::Same);
        assert_eq!(
            judge(def, &a, &Summary::of(&[1.020001])),
            Verdict::Regressed
        );
        assert_eq!(judge(def, &a, &Summary::of(&[1.019999])), Verdict::Improved);
    }

    #[test]
    fn compare_flags_a_regressed_row_and_failed_operations() {
        let base = crate::report::tests::sample_result();
        let doc = |r: &WorkloadResult| Value::object().set("workloads", vec![r.to_json()]);
        let (table, regressed) = compare(&doc(&base), &doc(&base)).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("inert_inline"));

        let mut slower = base.clone();
        slower.end_to_end[1].1 = vec![3.0, 3.1, 2.9];
        let (table, regressed) = compare(&doc(&base), &doc(&slower)).unwrap();
        assert!(regressed);
        assert!(table
            .lines()
            .any(|l| l.contains("cpu_s") && l.ends_with("regressed")));

        let mut failing = base.clone();
        failing.failed_ops = 1;
        let (_, regressed) = compare(&doc(&base), &doc(&failing)).unwrap();
        assert!(regressed);
    }
}
