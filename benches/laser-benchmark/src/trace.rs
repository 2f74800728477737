//! In-memory span recording for the traced passes.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each library layer; nothing inside the library is instrumented. A span is
//! (name, start, end, parent, pass id); spans stay in memory until the run
//! ends and are written out only on request (`--spans FILE`). A disabled
//! tracer records nothing and reads no clock, so the timed passes run the
//! same code with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Value;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on carry this pass id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open a span under the innermost open span. Returns `None` (and reads
    /// no clock) when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Time one call as a leaf span (the call itself cannot open spans).
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end);
        out
    }

    /// Record a span measured elsewhere (campaign cells are timed on the
    /// pool's worker threads) under the innermost open span.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                pass: self.pass,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that interval
    /// its direct children cover. Children that overlap one another (cells
    /// running on parallel workers) are counted once, by the union of their
    /// intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Per-name totals over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The whole trace as one JSON document (the `--spans FILE` payload).
    pub fn to_json(&self) -> Value {
        let selfs = self.self_times_ns();
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Value::object()
                        .set("id", id)
                        .set("name", s.name)
                        .set("pass", s.pass)
                        .set("parent", s.parent)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("self_ns", self_ns)
                })
                .collect(),
        )
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so self times are exact.
    fn tracer_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                pass: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t = tracer_with(&[
            ("pass", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 50, 90, Some(0)),
            ("a.inner", 15, 25, Some(1)),
        ]);
        // pass: 100 - (30 + 40); a: 30 - 10; b and a.inner are leaves. A
        // grandchild does not count against the grandparent twice.
        assert_eq!(t.self_times_ns(), vec![30, 20, 40, 10]);
        let totals = t.totals();
        assert_eq!(totals["pass"].self_ns, 30);
        assert_eq!(totals["a"].total_ns, 30);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' cells overlap in [20, 30): the union covers 10..50.
        let t = tracer_with(&[
            ("run", 0, 60, None),
            ("cell", 10, 30, Some(0)),
            ("cell", 20, 50, Some(0)),
            ("cell", 25, 28, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 20);
        assert_eq!(t.totals()["cell"].total_ns, 53);
    }

    #[test]
    fn begin_end_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let outer = t.begin("outer");
        let got = t.leaf("leaf", || 7);
        t.end(outer);
        assert_eq!(got, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].pass, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("outer");
        assert_eq!(off.leaf("leaf", || 7), 7);
        off.end(id);
        off.push("cell", 1, 2);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_json_parses_back() {
        let t = tracer_with(&[("pass", 0, 100, None), ("a", 10, 40, Some(0))]);
        let text = t.to_json().render();
        let back = Value::parse(&text).unwrap();
        let Value::Array(items) = back else {
            panic!("trace is an array")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent"), Some(&Value::Int(0)));
        assert_eq!(items[0].get("self_ns"), Some(&Value::Int(70)));
    }
}
