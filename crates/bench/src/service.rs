//! The campaign service: run a [`Scenario`] and stream its cells as JSON
//! lines.
//!
//! [`run_scenario`] is the engine under the `laser-serve` binary. It resolves
//! a validated scenario's cell plan onto the parallel
//! [`Campaign`] runner and writes one JSON object
//! per line to the caller's writer *as cells land* — a client watching the
//! stream sees results the moment a worker finishes them, not when the whole
//! campaign does. Line order therefore depends on scheduling; everything
//! else is deterministic:
//!
//! - each `{"kind":"cell", ...}` line carries the cell's full outcome
//!   (status, cycles, whether it was answered from the cell cache), and
//! - the final `{"kind":"scenario-summary", ...}` line aggregates counts,
//!   cache statistics and — when the scenario asked for one — the campaign's
//!   aggregate document (text, JSON or CSV), which *is* byte-identical for
//!   identical scenarios whatever the thread count or cache temperature.
//!
//! Stream and cache write failures never panic: the first error is captured
//! while the campaign drains and surfaced as a [`ServiceError`], which the
//! binaries turn into a clean nonzero exit.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use laser_workloads::registry;
use serde::json::Value;

use crate::cache::{CacheStats, CellCache};
use crate::campaign::{Campaign, CampaignProgress};
use crate::scenario::Scenario;

/// The service could not run a scenario to completion: the result stream or
/// the cell cache stopped accepting writes. The binaries print the message
/// and exit nonzero — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError(pub String);

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service error: {}", self.0)
    }
}

impl std::error::Error for ServiceError {}

/// Host-side knobs for [`run_scenario`] — the things a scenario file does
/// *not* decide because they belong to the machine running it.
#[derive(Default)]
pub struct ServiceOptions {
    /// Default worker-thread count for scenarios that do not pin their own
    /// `threads`; `None` means one worker per available core.
    pub threads: Option<usize>,
    /// Persistent cell cache shared across scenarios and invocations. Cells
    /// already in the cache stream back immediately with `"cached": true`.
    pub cache: Option<Arc<CellCache>>,
}

/// What a finished scenario run looked like: the contents of the
/// `scenario-summary` line at the end of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// The scenario's name.
    pub scenario: String,
    /// Total cells run.
    pub cells: usize,
    /// Cells whose tool completed.
    pub ok: usize,
    /// Cells that failed (unsupported, over budget, errored or panicked).
    pub failed: usize,
    /// Cells answered from the cell cache.
    pub cached: u64,
    /// Cells actually simulated (`cells - cached`).
    pub simulated: u64,
    /// Cache statistics at the end of the run, if a cache was configured.
    pub cache: Option<CacheStats>,
}

impl ServiceSummary {
    /// The summary as a JSON object (without the aggregate document).
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("kind", "scenario-summary")
            .set("scenario", self.scenario.as_str())
            .set("cells", self.cells)
            .set("ok", self.ok)
            .set("failed", self.failed)
            .set("cached", self.cached)
            .set("simulated", self.simulated)
            .set("cache", self.cache.as_ref().map(CacheStats::to_json))
    }
}

/// Run `scenario` on the campaign thread pool, streaming one JSON line per
/// finished cell to `out` followed by a `scenario-summary` line.
///
/// Cells fan over up to `scenario.threads` workers (falling back to
/// [`ServiceOptions::threads`], then one per core); the cache in `options`,
/// when present, answers previously-computed cells without simulating and
/// absorbs newly-computed ones for the next invocation.
///
/// # Errors
/// [`ServiceError`] if the stream writer or the cell cache fails; the
/// campaign still drains (a half-written stream never wedges workers), and
/// the first failure wins.
pub fn run_scenario<W: Write + Send>(
    scenario: &Scenario,
    options: &ServiceOptions,
    out: W,
) -> Result<ServiceSummary, ServiceError> {
    let workloads = registry();
    let requests = scenario
        .plan()
        .into_iter()
        .map(|(name, tool, topology)| {
            // Scenario validation already vetted every name; a miss here
            // means the registry changed under us mid-run.
            let workload = workloads.iter().find(|w| w.name == name);
            workload
                .map(|w| (w, tool, topology))
                .ok_or_else(|| ServiceError(format!("unknown workload '{name}'")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The scenario decides every knob but the host's: a thread count it did
    // not pin, and the cache.
    let mut config = scenario.config.clone();
    config.threads = config.threads.or(options.threads);
    config.cache = options.cache.clone();
    let campaign = Campaign::from_requests(requests, config);

    let writer = Mutex::new(out);
    let write_error: Mutex<Option<String>> = Mutex::new(None);
    let cached_cells = AtomicU64::new(0);
    let result = campaign.run_with_progress(|p| {
        let CampaignProgress::Finished {
            done,
            total,
            cell,
            cached,
        } = p
        else {
            return;
        };
        if cached {
            cached_cells.fetch_add(1, Ordering::Relaxed);
        }
        let line = Value::object()
            .set("kind", "cell")
            .set("scenario", scenario.name.as_str())
            .set("workload", cell.workload.as_str())
            .set("tool", cell.tool.as_str())
            .set("status", cell.status())
            .set(
                "cycles",
                match &cell.outcome {
                    Ok(run) => Value::from(run.cycles),
                    Err(_) => Value::Null,
                },
            )
            .set("cached", cached)
            .set("done", done)
            .set("total", total);
        let rendered = line.render();
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        let mut w = writer.lock().unwrap();
        if let Err(e) = writeln!(w, "{rendered}") {
            #[expect(
                clippy::unwrap_used,
                reason = "same poisoning argument as the writer lock"
            )]
            let mut slot = write_error.lock().unwrap();
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    });

    #[expect(
        clippy::unwrap_used,
        reason = "the campaign joined; the mutex cannot be poisoned or held"
    )]
    let error = write_error.into_inner().unwrap();
    if let Some(message) = error {
        return Err(ServiceError(format!(
            "failed to write result stream: {message}"
        )));
    }

    let cached = cached_cells.load(Ordering::Relaxed);
    let cells = result.cells.len();
    let ok = result.cells.iter().filter(|c| c.outcome.is_ok()).count();
    let summary = ServiceSummary {
        scenario: scenario.name.clone(),
        cells,
        ok,
        failed: cells - ok,
        cached,
        simulated: cells as u64 - cached,
        cache: options.cache.as_ref().map(|c| c.stats()),
    };

    let mut line = summary.to_json();
    if let Some(format) = scenario.format {
        let aggregate = Value::object()
            .set("format", format.key())
            .set("content", format.payload(&result));
        line = line.set("aggregate", aggregate);
    }
    let rendered = line.render();
    #[expect(
        clippy::unwrap_used,
        reason = "the campaign joined; the mutex cannot be poisoned or held"
    )]
    let mut w = writer.into_inner().unwrap();
    writeln!(w, "{rendered}")
        .map_err(|e| ServiceError(format!("failed to write result stream: {e}")))?;

    if let Some(cache) = &options.cache {
        if let Some(message) = cache.write_error() {
            return Err(ServiceError(format!("cell cache write failed: {message}")));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "laser-service-test-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    fn tiny_scenario(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            r#"{{
              "name": "tiny",
              "scale": 0.06,
              "threads": 1,
              "cells": [
                {{"workload": "histogram'", "tool": "native"}},
                {{"workload": "histogram'", "tool": "laser-detect"}},
                {{"workload": "swaptions", "tool": "native"}}
              ]{extra}
            }}"#
        ))
        .unwrap()
    }

    fn lines(out: &[u8]) -> Vec<Value> {
        std::str::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Value::parse(l).expect("every streamed line is valid JSON"))
            .collect()
    }

    #[test]
    fn streams_one_line_per_cell_then_a_summary() {
        let scenario = tiny_scenario("");
        let mut out = Vec::new();
        let summary = run_scenario(&scenario, &ServiceOptions::default(), &mut out).unwrap();
        assert_eq!(summary.cells, 3);
        assert_eq!(summary.ok, 3);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cached, 0);
        assert_eq!(summary.simulated, 3);
        assert_eq!(summary.cache, None);

        let lines = lines(&out);
        assert_eq!(lines.len(), 4);
        for line in &lines[..3] {
            assert_eq!(line.get("kind"), Some(&Value::Str("cell".to_string())));
            assert_eq!(line.get("scenario"), Some(&Value::Str("tiny".to_string())));
            assert_eq!(line.get("status"), Some(&Value::Str("ok".to_string())));
            assert_eq!(line.get("cached"), Some(&Value::Bool(false)));
            assert!(matches!(line.get("cycles"), Some(Value::Int(c)) if *c > 0));
        }
        let summary_line = &lines[3];
        assert_eq!(
            summary_line.get("kind"),
            Some(&Value::Str("scenario-summary".to_string()))
        );
        assert_eq!(summary_line.get("cells"), Some(&Value::Int(3)));
        assert_eq!(summary_line.get("cache"), Some(&Value::Null));
        assert_eq!(summary_line.get("aggregate"), None);
    }

    #[test]
    fn warm_cache_rerun_streams_cached_cells_and_identical_aggregate() {
        let dir = scratch_dir("warm");
        let cache = Arc::new(CellCache::open(&dir).unwrap());
        let scenario = tiny_scenario(r#", "format": "csv""#);
        let options = ServiceOptions {
            threads: None,
            cache: Some(Arc::clone(&cache)),
        };

        let mut cold = Vec::new();
        let first = run_scenario(&scenario, &options, &mut cold).unwrap();
        assert_eq!(first.cached, 0);
        assert_eq!(first.simulated, 3);

        // A fresh cache handle over the same directory: a second invocation
        // answers every cell from disk and simulates nothing.
        let options = ServiceOptions {
            threads: None,
            cache: Some(Arc::new(CellCache::open(&dir).unwrap())),
        };
        let mut warm = Vec::new();
        let second = run_scenario(&scenario, &options, &mut warm).unwrap();
        assert_eq!(second.cached, 3);
        assert_eq!(second.simulated, 0);
        assert_eq!(second.ok, 3);

        let cold_lines = lines(&cold);
        let warm_lines = lines(&warm);
        for line in &warm_lines[..3] {
            assert_eq!(line.get("cached"), Some(&Value::Bool(true)));
        }
        // The aggregate document is byte-identical, cold or warm.
        let aggregate = |ls: &[Value]| {
            ls.last()
                .and_then(|l| l.get("aggregate"))
                .and_then(|a| a.get("content"))
                .cloned()
                .expect("summary carries the requested aggregate")
        };
        assert_eq!(aggregate(&cold_lines), aggregate(&warm_lines));
        assert!(matches!(
            aggregate(&cold_lines),
            Value::Str(csv) if csv.starts_with("workload,tool,")
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_knobs_reach_the_campaign() {
        // A starvation budget marks every cell over budget — proof the
        // scenario's budget_steps reached the campaign.
        let scenario = Scenario::parse(
            r#"{
              "name": "starved",
              "scale": 0.06,
              "threads": 2,
              "budget_steps": 10,
              "pipeline": true,
              "cells": [
                {"workload": "histogram'", "tool": "native"},
                {"workload": "histogram'", "tool": "laser-detect", "topology": "2s"}
              ]
            }"#,
        )
        .unwrap();
        let mut out = Vec::new();
        let summary = run_scenario(&scenario, &ServiceOptions::default(), &mut out).unwrap();
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.failed, 2);
        let lines = lines(&out);
        for line in &lines[..2] {
            assert_eq!(
                line.get("status"),
                Some(&Value::Str("budget-exceeded".to_string()))
            );
            assert_eq!(line.get("cycles"), Some(&Value::Null));
        }
        // The multi-socket cell streams its decorated key.
        assert!(lines[..2]
            .iter()
            .any(|l| { l.get("tool") == Some(&Value::Str("laser-detect@2s".to_string())) }));
    }

    #[test]
    fn custom_topology_reaches_the_campaign_and_decorates_cell_keys() {
        // Same starvation trick as above: a 10-step budget keeps the run
        // instant, while the streamed tool key proves the bespoke layout —
        // not a preset — deployed the cell.
        let scenario = Scenario::parse(
            r#"{
              "name": "bespoke",
              "scale": 0.06,
              "budget_steps": 10,
              "custom_topology": {
                "name": "fat-thin",
                "core_blocks": [6, 2],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
              },
              "cells": [{"workload": "histogram'", "tool": "laser-detect"}]
            }"#,
        )
        .unwrap();
        let mut out = Vec::new();
        let summary = run_scenario(&scenario, &ServiceOptions::default(), &mut out).unwrap();
        assert_eq!(summary.cells, 1);
        let lines = lines(&out);
        assert_eq!(
            lines[0].get("tool"),
            Some(&Value::Str("laser-detect@fat-thin".to_string()))
        );
    }

    #[test]
    fn a_failing_stream_writer_is_an_error_not_a_panic() {
        struct Brick;
        impl Write for Brick {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("brick"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let scenario = tiny_scenario("");
        let err = run_scenario(&scenario, &ServiceOptions::default(), Brick).unwrap_err();
        assert!(err.to_string().contains("result stream"), "{err}");
        assert!(err.to_string().contains("brick"), "{err}");
    }
}
