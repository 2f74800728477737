//! The cell cache's central guarantee: a warm-cache rerun is **byte-identical**
//! to its cold run in every output format while simulating zero cells.
//!
//! Simulation is deterministic and the cache fingerprint covers a cell's full
//! configuration, so serving a cell from disk must be indistinguishable from
//! recomputing it — on the text table, the JSON document and the CSV table
//! alike. These tests pin that, plus the service layer on top: a scenario
//! rerun against a warm cache streams every cell back as a hit and produces
//! the identical aggregate document.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use laser_bench::{
    run_scenario, CampaignConfig, CellBudget, CellCache, Emit, Grid, Scenario, ServiceOptions,
    ToolSpec, TopologySpec, CACHE_SALT,
};
use laser_workloads::{find, BuildOptions};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("laser-cache-it-{}-{tag}-{n}", std::process::id()))
}

/// Native and LASERDETECT on `histogram'` and `swaptions`, workload-major,
/// under `config`.
fn campaign_under(config: CampaignConfig) -> Grid {
    let mut grid = Grid::with_config(config);
    for workload in ["histogram'", "swaptions"] {
        let spec = find(workload).expect("known workload");
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::LaserDetect);
    }
    grid
}

/// [`campaign_under`] at scale 0.08 on `threads` workers, with `deploy`
/// applied to the config.
fn campaign(threads: usize, deploy: impl FnOnce(&mut CampaignConfig)) -> Grid {
    let mut config = CampaignConfig {
        opts: BuildOptions::scaled(0.08),
        threads: NonZeroUsize::new(threads),
        ..CampaignConfig::default()
    };
    deploy(&mut config);
    campaign_under(config)
}

/// Deploy a campaign with `cache`.
fn cached(cache: &Arc<CellCache>) -> impl FnOnce(&mut CampaignConfig) {
    let cache = Arc::clone(cache);
    move |config| config.cache = Some(cache)
}

/// All three output formats of a campaign result, for byte comparison.
fn formats(result: &laser_bench::CampaignResult) -> (String, String, String) {
    (result.render(), result.to_json().render(), result.to_csv())
}

#[test]
fn warm_cache_rerun_is_byte_identical_in_every_format_and_simulates_nothing() {
    let dir = scratch_dir("formats");

    // Cold run: everything simulates, everything is stored.
    let cold_cache = Arc::new(CellCache::open(&dir).expect("cache dir"));
    let cold = campaign(2, cached(&cold_cache)).run().into_campaign();
    let cells = cold.cells.len() as u64;
    assert_eq!(cold_cache.stats().hits, 0);
    assert_eq!(cold_cache.stats().simulated(), cells);
    assert_eq!(cold_cache.stats().stored, cells);

    // Warm run through a fresh handle (a new process over the same
    // directory): zero cells simulate...
    let warm_cache = Arc::new(CellCache::open(&dir).expect("cache dir"));
    let warm = campaign(2, cached(&warm_cache)).run().into_campaign();
    assert_eq!(warm_cache.stats().hits, cells);
    assert_eq!(warm_cache.stats().simulated(), 0);
    assert_eq!(warm_cache.stats().stored, 0);

    // ...and every output format is byte-identical, cold vs warm vs uncached.
    assert_eq!(cold.cells, warm.cells);
    assert_eq!(formats(&cold), formats(&warm));
    let uncached = campaign(2, |_| {}).run().into_campaign();
    assert_eq!(formats(&uncached), formats(&warm));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_covers_budgeted_and_multi_socket_cells() {
    let dir = scratch_dir("axes");
    let shape = |cache: &Arc<CellCache>| {
        campaign(2, |config| {
            config.budget = CellBudget::steps(5_000);
            config.topology = TopologySpec::OctoSocket;
            cached(cache)(config);
        })
    };

    let cold_cache = Arc::new(CellCache::open(&dir).expect("cache dir"));
    let cold = shape(&cold_cache).run().into_campaign();
    // Step-budget trips are deterministic outcomes and cache like successes.
    assert!(cold.cells.iter().any(|c| c.status() == "budget-exceeded"));
    assert!(cold.cells.iter().all(|c| c.tool.ends_with("@8s")));
    assert_eq!(cold_cache.stats().stored, cold.cells.len() as u64);

    let warm_cache = Arc::new(CellCache::open(&dir).expect("cache dir"));
    let warm = shape(&warm_cache).run().into_campaign();
    assert_eq!(warm_cache.stats().simulated(), 0);
    assert_eq!(formats(&cold), formats(&warm));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salt_bump_invalidates_but_never_changes_output() {
    let dir = scratch_dir("salt");
    let first = Arc::new(CellCache::open(&dir).expect("cache dir"));
    let cold = campaign(2, cached(&first)).run().into_campaign();

    // A bumped salt treats every stored cell as stale: the rerun simulates
    // everything again (counted as invalidated, not missed) — and still
    // produces the identical bytes, because simulation is deterministic.
    let bumped = Arc::new(
        CellCache::open(&dir)
            .expect("cache dir")
            .with_salt(CACHE_SALT + 1),
    );
    let rerun = campaign(2, cached(&bumped)).run().into_campaign();
    assert_eq!(bumped.stats().hits, 0);
    assert_eq!(bumped.stats().invalidated, cold.cells.len() as u64);
    assert_eq!(formats(&cold), formats(&rerun));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_service_reruns_from_the_cache_with_identical_aggregate() {
    let dir = scratch_dir("service");
    let scenario = Scenario::parse(
        r#"{
          "name": "it",
          "scale": 0.08,
          "threads": 2,
          "format": "json",
          "cells": [
            {"workload": "histogram'", "tool": "native"},
            {"workload": "histogram'", "tool": "laser-detect"},
            {"workload": "swaptions", "tool": "native", "topology": "2s"}
          ]
        }"#,
    )
    .expect("valid scenario");

    let serve = |dir: &PathBuf, out: &mut Vec<u8>| {
        let options = ServiceOptions {
            threads: None,
            cache: Some(Arc::new(CellCache::open(dir).expect("cache dir"))),
        };
        run_scenario(&scenario, &options, out).expect("scenario runs")
    };

    let mut cold_out = Vec::new();
    let cold = serve(&dir, &mut cold_out);
    assert_eq!(cold.simulated, 3);
    assert_eq!(cold.cached, 0);

    let mut warm_out = Vec::new();
    let warm = serve(&dir, &mut warm_out);
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.cached, 3);
    assert_eq!(warm.ok, cold.ok);

    // The aggregate JSON document inside the summary line is byte-identical.
    let aggregate = |bytes: &[u8]| {
        let text = std::str::from_utf8(bytes).expect("utf8 stream");
        let last = text.lines().last().expect("summary line");
        let value = serde::json::Value::parse(last).expect("valid JSON line");
        value
            .get("aggregate")
            .and_then(|a| a.get("content"))
            .cloned()
            .expect("aggregate content")
    };
    assert_eq!(aggregate(&cold_out), aggregate(&warm_out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_populated_through_the_flag_setters_serves_the_equivalent_scenario() {
    let dir = scratch_dir("cross");

    // What `experiments campaign --scale 0.08 --threads 2 --pipeline
    // --cell-budget-steps 200000 --cache DIR` configures: the same setters,
    // in flag order.
    let mut config = CampaignConfig::evaluation();
    config.set_scale(0.08).expect("scale in range");
    config.set_threads(2).expect("threads in range");
    config.pipeline.enabled = true;
    config.set_budget_steps(200_000).expect("budget in range");
    config.cache = Some(Arc::new(CellCache::open(&dir).expect("cache dir")));
    let cold = campaign_under(config).run().into_campaign();

    // The same knobs spelled as scenario keys reach the same fingerprints:
    // the service simulates nothing and aggregates the same bytes.
    let scenario = Scenario::parse(
        r#"{
          "name": "cross",
          "budget_steps": 200000,
          "pipeline": true,
          "threads": 2,
          "scale": 0.08,
          "format": "text",
          "sweeps": [
            {"kind": "grid", "workloads": ["swaptions", "histogram'"],
             "tools": ["laser-detect", "native"]}
          ]
        }"#,
    )
    .expect("valid scenario");
    let options = ServiceOptions {
        threads: None,
        cache: Some(Arc::new(CellCache::open(&dir).expect("cache dir"))),
    };
    let mut out = Vec::new();
    let summary = run_scenario(&scenario, &options, &mut out).expect("scenario runs");
    assert_eq!(summary.cells, cold.cells.len());
    assert_eq!(summary.simulated, 0);
    assert_eq!(summary.cached, cold.cells.len() as u64);
    let text = std::str::from_utf8(&out).expect("utf8 stream");
    let last = serde::json::Value::parse(text.lines().last().expect("summary line"))
        .expect("valid JSON line");
    assert_eq!(
        last.get("aggregate").and_then(|a| a.get("content")),
        Some(&serde::json::Value::Str(cold.render()))
    );

    let _ = std::fs::remove_dir_all(&dir);
}
