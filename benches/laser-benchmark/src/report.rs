//! Results as JSON (the driver's one-line form and the full document the
//! `run` and `compare` subcommands exchange) and as a table for people.

use serde::json::Value;

use crate::measure::WorkloadResult;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// What the accuracy numbers are measured against; printed with every result.
pub const VALIDATION: &str = "Validation: the only reference this repository holds is the paper's \
hand-labelled list of known bugs, so accuracy (bug_recall, report_precision) is scored against \
that list. The cost model is otherwise unvalidated against hardware: no error figure is given \
for any simulated cycle count or overhead.";

// ------------------------------------------------------------ JSON access

pub fn f64_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn u64_of(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        // A seed above i64::MAX is rendered as a float by the JSON shim.
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("\"{key}\" is not a string")),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    u64_of(field(v, key)?).ok_or_else(|| format!("\"{key}\" is not a whole number"))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("\"{key}\" is not true or false")),
    }
}

pub fn pairs_of<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    match field(v, key)? {
        Value::Object(pairs) => Ok(pairs),
        _ => Err(format!("\"{key}\" is not an object")),
    }
}

pub fn items_of<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("\"{key}\" is not an array")),
    }
}

// ---------------------------------------------------------------- results

impl WorkloadResult {
    /// The one line the driver reads: with `trace` the per-layer metrics,
    /// without it the end-to-end medians.
    pub fn driver_line(&self, trace: bool) -> String {
        let mut metrics = Value::object();
        if trace {
            for ((name, value), def) in self.per_layer.iter().zip(PER_LAYER) {
                metrics = metrics.set(name, metric_value(*value, def.unit));
            }
        } else {
            for ((name, samples), def) in self.end_to_end.iter().zip(END_TO_END) {
                metrics = metrics.set(name, metric_value(Summary::of(samples).median, def.unit));
            }
        }
        Value::object()
            .set("correct", self.correct)
            .set("attempted", self.ops)
            .set("failed", self.failed_ops)
            .set("metrics", metrics)
            .render()
    }

    pub fn to_json(&self) -> Value {
        let mut end_to_end = Value::object();
        for ((name, samples), def) in self.end_to_end.iter().zip(END_TO_END) {
            end_to_end = end_to_end.set(
                name,
                Value::object()
                    .set("unit", def.unit)
                    .set(
                        "samples",
                        samples.iter().map(|&s| s.into()).collect::<Vec<Value>>(),
                    )
                    .set("summary", Summary::of(samples).to_json()),
            );
        }
        let mut per_layer = Value::object();
        for ((name, value), def) in self.per_layer.iter().zip(PER_LAYER) {
            per_layer = per_layer.set(name, metric_value(*value, def.unit));
        }
        Value::object()
            .set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("quick", self.quick)
            .set("parallelism", self.parallelism)
            .set("threads", self.threads)
            .set("time_sharing", self.time_sharing)
            .set("host_speed", self.host_speed)
            .set("passes", self.passes)
            .set("ops", self.ops)
            .set("failed_ops", self.failed_ops)
            .set("correct", self.correct)
            .set(
                "problems",
                self.problems
                    .iter()
                    .map(|p| p.as_str().into())
                    .collect::<Vec<Value>>(),
            )
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer)
    }

    pub fn from_json(v: &Value) -> Result<WorkloadResult, String> {
        let mut end_to_end = Vec::new();
        for (name, entry) in pairs_of(v, "end_to_end")? {
            let samples = items_of(entry, "samples")?
                .iter()
                .map(|s| f64_of(s).ok_or_else(|| format!("a sample of {name} is not a number")))
                .collect::<Result<Vec<f64>, String>>()?;
            if samples.is_empty() {
                return Err(format!("{name} has no sample"));
            }
            end_to_end.push((name.clone(), samples));
        }
        let mut per_layer = Vec::new();
        for (name, entry) in pairs_of(v, "per_layer")? {
            let value = f64_of(field(entry, "value")?)
                .ok_or_else(|| format!("the value of {name} is not a number"))?;
            per_layer.push((name.clone(), value));
        }
        let problems = items_of(v, "problems")?
            .iter()
            .map(|p| match p {
                Value::Str(s) => Ok(s.clone()),
                _ => Err("a problem is not a string".to_string()),
            })
            .collect::<Result<Vec<String>, String>>()?;
        Ok(WorkloadResult {
            workload: str_field(v, "workload")?,
            seed: u64_field(v, "seed")?,
            quick: bool_field(v, "quick")?,
            parallelism: u64_field(v, "parallelism")? as usize,
            threads: u64_field(v, "threads")? as usize,
            time_sharing: bool_field(v, "time_sharing")?,
            host_speed: f64_of(field(v, "host_speed")?).ok_or("\"host_speed\" is not a number")?,
            passes: u64_field(v, "passes")? as usize,
            ops: u64_field(v, "ops")?,
            failed_ops: u64_field(v, "failed_ops")?,
            correct: bool_field(v, "correct")?,
            problems,
            end_to_end,
            per_layer,
        })
    }

    /// Every metric by name with its unit, for people.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ==  seed {:#x}  passes {}  ops {}  failed_ops {}  parallelism {}  threads {}  \
             host_speed {:.3}{}{}",
            self.workload,
            self.seed,
            self.passes,
            self.ops,
            self.failed_ops,
            self.parallelism,
            self.threads,
            self.host_speed,
            if self.time_sharing {
                "  [time-sharing artefact: fewer CPUs than threads]"
            } else {
                ""
            },
            if self.correct { "" } else { "  [INCORRECT]" },
        );
        for why in &self.problems {
            let _ = writeln!(out, "  problem: {why}");
        }
        let _ = writeln!(
            out,
            "  {:<20} {:>16} {:>16} {:>16} {:>4}  {:<6} {:<6} base bound",
            "end-to-end", "median", "q1", "q3", "n", "unit", "better"
        );
        for ((name, samples), def) in self.end_to_end.iter().zip(END_TO_END) {
            let s = Summary::of(samples);
            let _ = writeln!(
                out,
                "  {:<20} {:>16.6} {:>16.6} {:>16.6} {:>4}  {:<6} {:<6} {:<4} {}",
                name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                def.unit,
                def.better.key(),
                def.base.key(),
                def.bound,
            );
        }
        if !self.per_layer.is_empty() {
            let _ = writeln!(out, "  {:<42} {:>18}  unit", "per-layer", "value");
            for ((name, value), def) in self.per_layer.iter().zip(PER_LAYER) {
                let _ = writeln!(out, "  {:<42} {:>18.6}  {}", name, value, def.unit);
            }
        }
        out
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::object().set("value", value).set("unit", unit)
}

/// Whether `b` is worse than `a` for a metric of this direction, as a share
/// of `a` (positive = worse).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_result() -> WorkloadResult {
        WorkloadResult {
            workload: "inert_inline".to_string(),
            seed: 0xA5E12,
            quick: false,
            parallelism: 2,
            threads: 1,
            time_sharing: false,
            host_speed: 0.875,
            passes: 3,
            ops: 18,
            failed_ops: 0,
            correct: true,
            problems: vec!["none, \"really\"".to_string()],
            end_to_end: END_TO_END
                .iter()
                .map(|e| (e.name.to_string(), vec![1.5, 0.25, 1e-7]))
                .collect(),
            per_layer: PER_LAYER
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name.to_string(), i as f64 * 0.5))
                .collect(),
        }
    }

    #[test]
    fn a_result_round_trips_through_json_text() {
        let result = sample_result();
        let text = result.to_json().render();
        let back = WorkloadResult::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let result = sample_result();
        for (trace, expected) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = Value::parse(&result.driver_line(trace)).unwrap();
            let Value::Object(pairs) = &line else {
                panic!("the line is an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("attempted"), Some(&Value::Int(18)));
            let metrics = pairs_of(&line, "metrics").unwrap();
            assert_eq!(metrics.len(), expected);
            for (_, m) in metrics {
                assert!(f64_of(m.get("value").unwrap()).is_some());
                assert!(matches!(m.get("unit"), Some(Value::Str(_))));
            }
        }
        // The end-to-end value is the median of the samples.
        let line = Value::parse(&result.driver_line(false)).unwrap();
        let wall = pairs_of(&line, "metrics").unwrap()[1]
            .1
            .get("value")
            .unwrap();
        assert_eq!(f64_of(wall), Some(0.25));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 10.0, 11.0), -0.1);
        assert_eq!(worse_by(Better::Higher, 10.0, 9.0), 0.1);
    }
}
