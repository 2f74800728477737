//! The one configuration path through `laser-bench`.
//!
//! A knob enters as an `experiments` flag or a scenario JSON key, lands in a
//! [`CampaignConfig`] through a validated setter (both parsers call the same
//! one, so a value either front end rejects, the other rejects too), is
//! lowered once per cell into a [`CellConfig`] by [`CampaignConfig::cell`],
//! and that one value is what the cell cache fingerprints
//! ([`crate::cache::fingerprint`]) and what [`ToolSpec::run`](crate::tool::ToolSpec::run)
//! deploys from. Adding a knob is one field here plus its setter.

use std::num::NonZeroUsize;
use std::sync::Arc;

use laser_core::{CellBudget, PipelineConfig, TopologySpec};
use laser_machine::MachineConfig;
use laser_workloads::BuildOptions;

use crate::cache::CellCache;
use crate::runner::{find_workload, ExperimentScale};
use crate::topofile::CustomTopology;

/// Everything a campaign applies to every one of its cells, and the
/// workloads its planners select.
///
/// The setters return the *predicate* a rejected value failed (`must be at
/// least 1`); each front end prefixes its own spelling of the knob
/// (`--threads` / `"threads"`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignConfig {
    /// Build options before topology adaptation (`opts.scale` is the
    /// workload input-scale multiplier).
    pub opts: BuildOptions,
    /// The workloads planners select ([`ExperimentScale::only`]); `None`
    /// means the full suite. It picks cells and is part of none.
    pub only: Option<Vec<&'static str>>,
    /// Campaign worker threads; `None` means one per available core.
    pub threads: Option<NonZeroUsize>,
    /// Per-cell budget (unlimited by default).
    pub budget: CellBudget,
    /// Session pipeline deployment of LASER cells (inline by default). A
    /// pipelined cell is byte-identical to its inline equivalent.
    pub pipeline: PipelineConfig,
    /// Topology preset default-planned cells deploy on.
    pub topology: TopologySpec,
    /// Bespoke layout every cell deploys on instead of its preset
    /// (`--topology-file` / a scenario's `"custom_topology"`).
    pub custom_topology: Option<Arc<CustomTopology>>,
    /// Persistent cell cache consulted before simulating and fed after.
    pub cache: Option<Arc<CellCache>>,
}

/// The largest workload input scale a flag or scenario key accepts.
///
/// Past it every cell would run to `MachineConfig::default().max_steps`
/// (4×10^8 instructions) and fail: the longest registry native run on the
/// flat machine, `dedup`, retires 399,269,535 instructions at scale 1242 and
/// exceeds the bound at 1243. A larger scale, `1e300` say, used to saturate
/// every iteration count and cost each cell 4×10^8 steps before it failed.
pub const MAX_SCALE: f64 = 1242.0;

fn at_least_one(n: u64) -> Result<u64, String> {
    if n == 0 {
        return Err("must be at least 1".to_string());
    }
    Ok(n)
}

impl CampaignConfig {
    /// What both front ends start from: every default, at the evaluation's
    /// default input scale (0.4) rather than the workloads' native 1.0.
    pub fn evaluation() -> Self {
        CampaignConfig {
            opts: ExperimentScale::default().options(),
            ..CampaignConfig::default()
        }
    }

    /// Set the workload input-scale multiplier.
    ///
    /// # Errors
    /// Unless `scale` is finite and positive, and at most [`MAX_SCALE`].
    pub fn set_scale(&mut self, scale: f64) -> Result<(), String> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!("must be a positive number, got {scale}"));
        }
        if scale > MAX_SCALE {
            return Err(format!("must be at most {MAX_SCALE}, got {scale:e}"));
        }
        self.opts.scale = scale;
        Ok(())
    }

    /// Restrict the planners to the workloads `names`, which may repeat and
    /// come in any order.
    ///
    /// # Errors
    /// The [`find_workload`] message for the first name that matches no
    /// workload; the filter is then unchanged.
    pub fn set_only<'n>(&mut self, names: impl IntoIterator<Item = &'n str>) -> Result<(), String> {
        let names = names
            .into_iter()
            .map(|name| find_workload(name).map(|spec| spec.name))
            .collect::<Result<_, _>>()?;
        self.only = Some(names);
        Ok(())
    }

    /// Pin the worker-thread count.
    ///
    /// # Errors
    /// On zero.
    pub fn set_threads(&mut self, threads: u64) -> Result<(), String> {
        self.threads = Some(NonZeroUsize::new(threads as usize).ok_or("must be at least 1")?);
        Ok(())
    }

    /// Bound every cell at `steps` retired instructions.
    ///
    /// # Errors
    /// On zero.
    pub fn set_budget_steps(&mut self, steps: u64) -> Result<(), String> {
        self.budget = CellBudget::steps(at_least_one(steps)?);
        Ok(())
    }

    /// The worker-thread count a campaign under this config runs on.
    pub fn worker_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
            .get()
    }

    /// Lower this config to the cell running `tool` on `workload` at
    /// `topology` — the only place a [`CellConfig`] is made from one.
    pub fn cell<'a>(
        &'a self,
        workload: &'a str,
        tool: &'a str,
        topology: TopologySpec,
    ) -> CellConfig<'a> {
        CellConfig {
            workload,
            tool,
            topology,
            custom_topology: self.custom_topology.as_deref(),
            opts: &self.opts,
            budget: self.budget,
            pipeline: self.pipeline,
        }
    }
}

/// The full configuration of one campaign cell: what the cache fingerprints
/// and what [`ToolSpec::run`](crate::tool::ToolSpec::run) deploys from.
/// Everything that can change a cell's result must appear here: the tool's
/// whole configuration is its key, [`ToolSpec::key`](crate::tool::ToolSpec::key).
#[derive(Debug, Clone, Copy)]
pub struct CellConfig<'a> {
    /// Workload name (unique in the registry).
    pub workload: &'a str,
    /// Bare tool key ([`ToolSpec::key`](crate::tool::ToolSpec::key)),
    /// without any topology suffix.
    pub tool: &'a str,
    /// Topology preset the cell deploys on (ignored when `custom_topology`
    /// overrides it).
    pub topology: TopologySpec,
    /// Bespoke topology the cell deploys on instead of a preset, if any. Its
    /// full canonical rendering replaces the preset key in the fingerprint,
    /// so cells from different layouts never alias — two custom layouts
    /// collide only if every field (name, core blocks, latency table)
    /// agrees.
    pub custom_topology: Option<&'a CustomTopology>,
    /// Build options before topology adaptation (see
    /// [`CellConfig::adapted_opts`]).
    pub opts: &'a BuildOptions,
    /// Per-cell budget.
    pub budget: CellBudget,
    /// Pipeline deployment of the cell's session.
    pub pipeline: PipelineConfig,
}

impl<'a> CellConfig<'a> {
    /// The default cell: flat preset, unlimited budget, inline session.
    pub fn flat(workload: &'a str, tool: &'a str, opts: &'a BuildOptions) -> Self {
        CellConfig {
            workload,
            tool,
            topology: TopologySpec::Flat,
            custom_topology: None,
            opts,
            budget: CellBudget::default(),
            pipeline: PipelineConfig::default(),
        }
    }

    /// The canonical rendering the fingerprint hashes: one `key=value` line
    /// per config field, in a fixed order. Floats render with `{:?}` so the
    /// exact bit pattern round-trips; every other field has one stable
    /// spelling. This string is also stored in the cache file and compared
    /// on load, so a fingerprint collision can never alias two configs.
    pub fn canonical(&self) -> String {
        let steps = match self.budget.max_steps {
            Some(n) => n.to_string(),
            None => "none".to_string(),
        };
        // A custom layout's full canonical rendering takes the preset key's
        // slot; names cannot shadow preset keys (topofile validation), so
        // the two families never alias and preset-only fingerprints are
        // byte-identical to the pre-topology-file scheme.
        let topology = match self.custom_topology {
            Some(custom) => custom.canonical(),
            None => self.topology.key().to_string(),
        };
        // `budget_wall_ms=` and every `pipeline_*` line after `pipeline=`
        // are literals: budgets count steps only, and the deployment has one
        // channel depth, lossless delivery, one detector and no charge-back
        // lag. The lines keep every fingerprint — and every cache entry
        // already on disk — valid.
        format!(
            "workload={}\ntool={}\ntopology={}\nthreads={}\nscale={:?}\nfixed={}\n\
             layout_perturbation={}\nplacement={}\nbudget_steps={}\nbudget_wall_ms=none\n\
             pipeline={}\npipeline_capacity=2\npipeline_lossy=false\npipeline_shards=1\n\
             pipeline_routing=line\npipeline_driver_lag=0\n",
            self.workload,
            self.tool,
            topology,
            self.opts.threads,
            self.opts.scale,
            self.opts.fixed,
            self.opts.layout_perturbation,
            self.opts.placement,
            steps,
            self.pipeline.enabled,
        )
    }

    /// The key this cell's result is labelled with: the bare tool name on
    /// the flat preset, `tool@2s` on a multi-socket one
    /// ([`crate::tool::cell_key`]), `tool@name` on a custom layout.
    pub fn cell_key(&self) -> String {
        match self.custom_topology {
            Some(custom) => format!("{}@{}", self.tool, custom.name()),
            None => crate::tool::cell_key(self.tool, self.topology),
        }
    }

    /// The build options adapted to the cell's deployment: threads scale
    /// with the socket count and multi-socket placement goes round-robin
    /// ([`BuildOptions::for_topology`] / [`CustomTopology::adapt`]); one
    /// socket leaves them unchanged.
    pub fn adapted_opts(&self) -> BuildOptions {
        match self.custom_topology {
            Some(custom) => custom.adapt(self.opts),
            None => self.opts.clone().for_topology(self.topology),
        }
    }

    /// The machine the cell deploys on: the custom layout's, or the
    /// preset's (the flat preset is [`MachineConfig::default`]).
    pub fn machine_config(&self) -> MachineConfig {
        match self.custom_topology {
            Some(custom) => custom.machine_config(),
            None => MachineConfig::for_topology(self.topology),
        }
    }
}
