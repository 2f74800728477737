//! The two campaign workloads: the paper grid exactly as `experiments all`
//! plans it — every planner on one `Grid` — then every `*_from_grid` view and
//! every `Emit` format. Cold simulates all 245 cells; warm answers them from
//! a cell cache populated during set-up and must emit the same bytes with no
//! cell simulated.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use laser_bench::accuracy::{
    fig9_from_grid, fig9_thresholds, plan_fig9, plan_table1, plan_table2, table1_from_grid,
    table2_from_grid, Fig9Report, Table1Report, Table2Report,
};
use laser_bench::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig13_savs,
    fig14_from_grid, plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14, Fig10Report,
    Fig11Report, Fig12Report, Fig13Report, Fig14Report,
};
use laser_bench::{
    geomean, CacheStats, CampaignProgress, CellBudget, CellCache, CellConfig, Emit,
    ExperimentScale, Grid, GridResult, PipelineConfig, ToolFailure, ToolSpec, TopologySpec,
};
use laser_core::Laser;
use laser_workloads::{registry, BuildOptions};

use crate::metrics::SimTotals;
use crate::trace::Tracer;

/// The share of Figure 12's runtime below which a component is folded away
/// (`experiments fig12` uses the same value).
const FIG12_THRESHOLD: f64 = 0.10;

/// Where one campaign workload runs.
pub struct Prepared {
    pub scale: f64,
    pub threads: usize,
    /// The populated cache directory (warm only).
    pub cache_dir: Option<PathBuf>,
    /// What the populating run emitted: the cold bytes every warm rerun must
    /// reproduce (warm only).
    pub cold: Option<Emitted>,
    /// Host microseconds of each `WorkloadSpec::build` call of set-up, and
    /// host nanoseconds and retired steps of its native runs (cold only).
    pub build_us: Vec<f64>,
    pub native_ns: f64,
    pub native_steps: u64,
}

/// The emitted documents of one grid run, in all three formats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Emitted {
    pub json: String,
    pub csv: String,
    pub text: String,
}

impl Emitted {
    pub fn bytes(&self) -> usize {
        self.json.len() + self.csv.len() + self.text.len()
    }
}

/// One finished grid run: the cells, what was emitted, and which operations
/// failed.
pub struct GridRun {
    pub result: GridResult,
    pub emitted: Emitted,
    pub failures: Vec<String>,
    pub cache: Option<CacheStats>,
    /// Table 1's `(known bugs, LASER misses, LASER false positives)`.
    accuracy: (usize, usize, usize),
}

/// The simulated quantities of a grid run. They are the same for every run
/// of a workload, so they are worked out once, outside the timed passes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    pub cells: usize,
    /// Ground-truth HITM events of the cells, and how many crossed a socket.
    pub hitm_events: u64,
    pub hitm_remote: u64,
    pub sim: SimTotals,
}

impl GridRun {
    pub fn sim_summary(&self) -> SimSummary {
        let campaign = self.result.campaign();
        let (mut cycles, mut hitm_events, mut hitm_remote, mut sites_reported) = (0, 0, 0, 0);
        let mut ratios = Vec::new();
        for cell in &campaign.cells {
            let Ok(run) = &cell.outcome else { continue };
            cycles += run.cycles;
            hitm_events += run.hitm_events;
            hitm_remote += run.hitm_remote;
            if cell.tool.starts_with("laser") {
                ratios.extend(campaign.normalized(&cell.workload, &cell.tool));
            }
            if cell.tool == ToolSpec::LaserDetect.key() {
                sites_reported += run.reported.len();
            }
        }
        let (known_bugs, missed, false_positives) = self.accuracy;
        SimSummary {
            cells: campaign.cells.len(),
            hitm_events,
            hitm_remote,
            sim: SimTotals {
                cycles,
                sim_overhead: geomean(&ratios),
                known_bugs,
                bugs_found: known_bugs - missed,
                sites_reported,
                false_positives,
            },
        }
    }
}

/// One span of the campaign pool: a cell on a worker thread.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// `cell.cached` for a cell answered from the cache, otherwise
    /// `cell.<tool family>`.
    pub name: &'static str,
    /// The pool worker that ran the cell, numbered by first appearance.
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// When the cell this pool worker is running started. A worker runs its
    /// cells one after another, so `Started` and `Finished` pair up by thread
    /// and the start needs no lock.
    static CELL_STARTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Collects per-cell spans from `Grid::run_with_progress` callbacks.
pub struct CellSpans {
    epoch: Instant,
    base_ns: u64,
    done: Mutex<Vec<(ThreadId, CellSpan)>>,
}

impl CellSpans {
    /// `base_ns` is the tracer's clock now, so cell spans land on the
    /// tracer's time line.
    pub fn new(base_ns: u64) -> CellSpans {
        CellSpans {
            epoch: Instant::now(),
            base_ns,
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn on_progress(&self, progress: CampaignProgress) {
        let now = self.base_ns + self.epoch.elapsed().as_nanos() as u64;
        match progress {
            CampaignProgress::Started { .. } => CELL_STARTED_NS.set(now),
            CampaignProgress::Finished { cell, cached, .. } => {
                let span = CellSpan {
                    name: if cached {
                        "cell.cached"
                    } else {
                        tool_family(&cell.tool)
                    },
                    worker: 0,
                    start_ns: CELL_STARTED_NS.get(),
                    end_ns: now,
                };
                self.done
                    .lock()
                    .expect("a progress callback panicked")
                    .push((std::thread::current().id(), span));
            }
        }
    }

    pub fn into_spans(self) -> Vec<CellSpan> {
        let done = self
            .done
            .into_inner()
            .expect("a progress callback panicked");
        let mut workers: Vec<ThreadId> = Vec::new();
        done.into_iter()
            .map(|(thread, mut span)| {
                span.worker = match workers.iter().position(|t| *t == thread) {
                    Some(i) => i,
                    None => {
                        workers.push(thread);
                        workers.len() - 1
                    }
                };
                span
            })
            .collect()
    }
}

/// The span name of a cell, by the tool family that ran it.
fn tool_family(tool: &str) -> &'static str {
    if tool.starts_with("laser") {
        "cell.laser"
    } else if tool.starts_with("native") {
        "cell.native"
    } else if tool.starts_with("vtune") {
        "cell.vtune"
    } else {
        "cell.sheriff"
    }
}

/// Plan the paper grid: every planner `experiments all` runs, on one grid.
fn plan(scale: f64, threads: usize, cache: Option<Arc<CellCache>>) -> Grid {
    let mut grid = Grid::new(ExperimentScale {
        workload_scale: scale,
        only: None,
    })
    .with_threads(threads);
    if let Some(cache) = cache {
        grid = grid.with_cache(cache);
    }
    plan_table1(&mut grid);
    plan_table2(&mut grid);
    plan_fig9(&mut grid);
    plan_fig10(&mut grid);
    plan_fig11(&mut grid);
    plan_fig12(&mut grid);
    plan_fig13(&mut grid, &fig13_savs());
    plan_fig14(&mut grid);
    grid
}

/// Every view over a finished grid.
struct Views {
    table1: Table1Report,
    table2: Table2Report,
    fig9: Fig9Report,
    fig10: Fig10Report,
    fig11: Fig11Report,
    fig12: Fig12Report,
    fig13: Fig13Report,
    fig14: Fig14Report,
}

impl Views {
    fn derive(grid: &GridResult) -> Result<Views, String> {
        let e = |e: laser_bench::ExperimentError| e.to_string();
        Ok(Views {
            table1: table1_from_grid(grid).map_err(e)?,
            table2: table2_from_grid(grid).map_err(e)?,
            fig9: fig9_from_grid(grid, &fig9_thresholds()).map_err(e)?,
            fig10: fig10_from_grid(grid).map_err(e)?,
            fig11: fig11_from_grid(grid).map_err(e)?,
            fig12: fig12_from_grid(grid, FIG12_THRESHOLD).map_err(e)?,
            fig13: fig13_from_grid(grid, &fig13_savs()).map_err(e)?,
            fig14: fig14_from_grid(grid).map_err(e)?,
        })
    }

    fn documents(&self) -> [(&'static str, &dyn Emit); 8] {
        [
            ("table1", &self.table1),
            ("table2", &self.table2),
            ("fig9", &self.fig9),
            ("fig10", &self.fig10),
            ("fig11", &self.fig11),
            ("fig12", &self.fig12),
            ("fig13", &self.fig13),
            ("fig14", &self.fig14),
        ]
    }

    /// One JSON document per line, as `experiments all --format json`.
    fn json(&self) -> String {
        self.documents()
            .iter()
            .map(|(_, d)| format!("{}\n", d.to_json().render()))
            .collect()
    }

    /// `# name` blocks, as `experiments all --format csv`.
    fn csv(&self) -> String {
        self.documents()
            .iter()
            .map(|(name, d)| format!("# {name}\n{}\n", d.to_csv()))
            .collect()
    }

    fn text(&self) -> String {
        [
            ("table1", self.table1.render()),
            ("table2", self.table2.render()),
            ("fig9", self.fig9.render()),
            ("fig10", self.fig10.render()),
            ("fig11", self.fig11.render()),
            ("fig12", self.fig12.render()),
            ("fig13", self.fig13.render()),
            ("fig14", self.fig14.render()),
        ]
        .iter()
        .map(|(name, body)| format!("==================== {name} ====================\n{body}\n"))
        .collect()
    }
}

/// Plan, run, view and emit the grid once. With a tracer that is on, the
/// run, the views and each format get a span and every cell a child span of
/// the run.
fn run_grid(
    scale: f64,
    threads: usize,
    cache: Option<Arc<CellCache>>,
    tracer: &mut Tracer,
) -> (GridRun, Vec<CellSpan>) {
    let grid = plan(scale, threads, cache.clone());
    let run_id = tracer.begin("grid.run");
    let (result, cell_spans) = if tracer.enabled() {
        let spans = CellSpans::new(tracer.now_ns());
        let result = grid.run_with_progress(|p| spans.on_progress(p));
        (result, spans.into_spans())
    } else {
        (grid.run(), Vec::new())
    };
    for s in &cell_spans {
        tracer.push(s.name, s.start_ns, s.end_ns);
    }
    tracer.end(run_id);

    let mut failures = Vec::new();
    for cell in &result.campaign().cells {
        match &cell.outcome {
            // Sheriff declining a workload is a modelled result (Figure 14).
            Ok(_) | Err(ToolFailure::Unsupported(_)) => {}
            Err(failure) => failures.push(format!("{} x {}: {failure}", cell.workload, cell.tool)),
        }
    }

    let views = tracer.leaf("grid.views", || Views::derive(&result));
    let (emitted, accuracy) = match views {
        Ok(views) => {
            let emitted = Emitted {
                json: tracer.leaf("emit.json", || views.json()),
                csv: tracer.leaf("emit.csv", || views.csv()),
                text: tracer.leaf("emit.text", || views.text()),
            };
            let (bugs, missed, false_positives, ..) = views.table1.totals();
            (emitted, (bugs, missed, false_positives))
        }
        Err(why) => {
            failures.push(format!("view: {why}"));
            (Emitted::default(), (0, 0, 0))
        }
    };
    let run = GridRun {
        result,
        emitted,
        failures,
        cache: cache.map(|c| c.stats()),
        accuracy,
    };
    (run, cell_spans)
}

/// Set up a campaign workload. Cold: check the inputs before anything is
/// timed — build every registry image at the campaign scale and run it to
/// completion with no tool attached, so no cell can fail on its program.
/// Warm: populate a fresh cell cache under `scratch` with one full cold run.
pub fn prepare(
    warm: bool,
    scale: f64,
    threads: usize,
    scratch: &Path,
    attempt: usize,
) -> Result<Prepared, String> {
    let mut p = Prepared {
        scale,
        threads,
        cache_dir: None,
        cold: None,
        build_us: Vec::new(),
        native_ns: 0.0,
        native_steps: 0,
    };
    if warm {
        let dir = scratch.join(format!("cell-cache-{attempt}"));
        let cache = CellCache::open(&dir).map_err(|e| e.to_string())?;
        let (run, _) = run_grid(
            scale,
            threads,
            Some(Arc::new(cache)),
            &mut Tracer::new(false),
        );
        if !run.failures.is_empty() {
            return Err(format!("populating run failed: {:?}", run.failures));
        }
        p.cache_dir = Some(dir);
        p.cold = Some(run.emitted);
    } else {
        let opts = BuildOptions::scaled(scale);
        for spec in registry() {
            let start = Instant::now();
            let image = spec.build(&opts);
            p.build_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let native = Laser::run_native(&image)
                .map_err(|e| format!("native run of {}: {e}", spec.name))?;
            p.native_ns += start.elapsed().as_secs_f64() * 1e9;
            p.native_steps += native.steps;
        }
    }
    Ok(p)
}

impl Prepared {
    /// One grid run: cold with no cache, warm against a freshly opened handle
    /// on the populated cache (what a rerun in a new process does).
    pub fn run_once(&self, tracer: &mut Tracer) -> (GridRun, Vec<CellSpan>) {
        let cache = self.cache_dir.as_ref().map(|dir| {
            Arc::new(CellCache::open(dir).expect("the populated cache directory opens"))
        });
        let (mut run, spans) = run_grid(self.scale, self.threads, cache, tracer);
        if let Some(cold) = &self.cold {
            if run.emitted != *cold {
                run.failures
                    .push("warm bytes differ from the cold bytes".to_string());
            }
            let simulated = run.cache.map_or(0, |c| c.simulated());
            if simulated != 0 {
                run.failures
                    .push(format!("warm rerun simulated {simulated} cells"));
            }
        }
        (run, spans)
    }

    /// `CellCache::store` of every cell of `run` into an empty directory under
    /// `scratch`, in seconds: what populating the cache costs beyond the
    /// simulation itself.
    pub fn store_all_s(&self, run: &GridRun, scratch: &Path) -> Result<f64, String> {
        let cache = CellCache::open(scratch.join("cell-cache-store")).map_err(|e| e.to_string())?;
        let opts = BuildOptions::scaled(self.scale);
        let start = Instant::now();
        for cell in &run.result.campaign().cells {
            let config = CellConfig {
                workload: &cell.workload,
                tool: &cell.tool,
                topology: TopologySpec::Flat,
                custom_topology: None,
                opts: &opts,
                budget: CellBudget::default(),
                pipeline: PipelineConfig::default(),
            };
            cache.store(&config, cell);
        }
        let seconds = start.elapsed().as_secs_f64();
        match cache.write_error() {
            Some(why) => Err(format!("cache store: {why}")),
            None => Ok(seconds),
        }
    }

    /// Bytes on disk per cached cell.
    pub fn cache_bytes_per_cell(&self) -> f64 {
        let Some(dir) = &self.cache_dir else {
            return 0.0;
        };
        let sizes: Vec<u64> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .collect();
        if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
        }
    }
}

/// A writer that notes when each line lands, for the service timings.
struct LineClock {
    start: Instant,
    line_ms: Vec<f64>,
}

impl std::io::Write for LineClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.contains(&b'\n') {
            self.line_ms.push(self.start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `service::run_scenario` on a fixed scenario document — the six contended
/// programs under `native` and `laser-detect` — into a timestamping writer:
/// `(milliseconds to the first cell line, milliseconds to the summary line)`.
pub fn service_times_ms(threads: usize, scale: f64) -> Result<(f64, f64), String> {
    let workloads: Vec<String> = crate::workloads::CONTENDED
        .iter()
        .map(|w| format!("\"{w}\""))
        .collect();
    let document = format!(
        "{{\"name\":\"laser-benchmark-service\",\"scale\":{scale:?},\"threads\":{threads},\
         \"sweeps\":[{{\"kind\":\"grid\",\"workloads\":[{}],\
         \"tools\":[\"native\",\"laser-detect\"]}}]}}",
        workloads.join(",")
    );
    let scenario = laser_bench::Scenario::parse(&document).map_err(|e| e.to_string())?;
    let mut clock = LineClock {
        start: Instant::now(),
        line_ms: Vec::new(),
    };
    let summary = laser_bench::run_scenario(
        &scenario,
        &laser_bench::ServiceOptions::default(),
        &mut clock,
    )
    .map_err(|e| e.to_string())?;
    if summary.failed != 0 {
        return Err(format!("{} service cells failed", summary.failed));
    }
    match (clock.line_ms.first(), clock.line_ms.last()) {
        (Some(&first), Some(&last)) => Ok((first, last)),
        _ => Err("the service wrote no line".to_string()),
    }
}
