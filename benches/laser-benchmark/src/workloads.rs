//! The workload table. Names are permanent; every size below is a pinned
//! constant — nothing is calibrated at run time, so a pass is the same work
//! on both sides of a comparison.
//!
//! Sizes were chosen so one pass takes 0.7–1.0 s on the 2-CPU reference host.

use laser_core::TopologySpec;

/// The six programs with no contention at all: 0 HITM per thousand steps.
const INERT: &[&str] = &[
    "blackscholes",
    "swaptions",
    "string_match",
    "matrix_multiply",
    "pca",
    "water_spatial",
];

/// The six most contended programs: 51–275 HITM per thousand steps.
pub const CONTENDED: &[&str] = &[
    "dedup",
    "volrend",
    "linear_regression",
    "kmeans",
    "bodytrack",
    "histogram'",
];

/// `CONTENDED` without `dedup` and `volrend`, whose step count grows
/// superlinearly with the thread count: at 32 threads they would make the
/// pass a `dedup` benchmark.
const CONTENDED_8S: &[&str] = &["linear_regression", "kmeans", "bodytrack", "histogram'"];

/// The three programs on which repair attaches (or, for `lu_ncb`, is
/// analysed and judged too complex).
const REPAIRED: &[&str] = &["histogram'", "linear_regression", "lu_ncb"];

/// One session per program per pass, run to completion.
#[derive(Debug, Clone, Copy)]
pub struct SessionDef {
    pub programs: &'static [&'static str],
    /// `LaserConfig::default()` (repair on) instead of `detection_only()`.
    ///
    /// A repair workload runs at `DEFAULT_SEED` whatever `--seed` says. The
    /// repair trigger is a threshold on sampled, distorted records, so the
    /// seed decides in which quantum repair attaches and — for
    /// `linear_regression`, the paper's low-address-accuracy case — whether
    /// it attaches at all (measured over ten seeds: `sim_overhead` 0.219 or
    /// 0.385, reported lines different on every seed). The detection-only
    /// workloads take the seed: there it changes every distorted record, and
    /// with them the digests, but no count and no cycle.
    pub repair: bool,
    pub sav: u32,
    pub topology: TopologySpec,
    /// Deploy through `PipelineConfig::pipelined()` (three stages, one
    /// shard, capacity 2, lag 0).
    pub piped: bool,
    pub scale: f64,
}

impl SessionDef {
    /// Whether the traced pass can be the layered replay: the inline
    /// detection-only quantum loop rebuilt from the layers' public functions.
    pub fn replayable(&self) -> bool {
        !self.repair && !self.piped
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Session(SessionDef),
    /// The paper grid, every cell simulated.
    CampaignCold,
    /// The paper grid against a populated cell cache, `WARM_RERUNS` times.
    CampaignWarm,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Threads the workload keeps busy; with fewer CPUs the result is a
    /// time-sharing artefact and is labelled so.
    pub threads: usize,
}

/// Input scale of the campaign grid (`experiments all --scale 2.0`).
pub const CAMPAIGN_SCALE: f64 = 2.0;
/// Campaign pool size (`--threads 2`), unless `--threads` says otherwise.
pub const CAMPAIGN_THREADS: usize = 2;
/// Warm-cache reruns of the whole grid in one `campaign_warm` pass.
pub const WARM_RERUNS: usize = 150;
/// Default `--seed`: the paper configuration's imprecision seed.
pub const DEFAULT_SEED: u64 = 0xA5E12;
/// What `--quick` divides every scale and `WARM_RERUNS` by.
pub const QUICK_DIVISOR: f64 = 10.0;

const fn inline(programs: &'static [&'static str], sav: u32, scale: f64) -> SessionDef {
    SessionDef {
        programs,
        repair: false,
        sav,
        topology: TopologySpec::Flat,
        piped: false,
        scale,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "inert_inline",
        why: "0 HITM/kstep: Machine::run_quantum is the whole pass, so hot-loop work shows here and record-path work must not",
        kind: Kind::Session(inline(INERT, 19, 24.0)),
        threads: 1,
    },
    Workload {
        name: "contended_inline",
        why: "51-275 HITM/kstep at sav 1: driver ingest and detector are a third of the pass, so pebs/core work shows here",
        kind: Kind::Session(inline(CONTENDED, 1, 14.0)),
        threads: 1,
    },
    Workload {
        name: "contended_piped",
        why: "same images through the three-stage pipeline: digest equals contended_inline; a gain inline that costs the pipeline shows here",
        kind: Kind::Session(SessionDef {
            piped: true,
            ..inline(CONTENDED, 1, 14.0)
        }),
        threads: 3,
    },
    Workload {
        name: "contended_8s",
        why: "32 cores on 8 sockets, nearly every HITM remote: a scheduler or directory change that helps 4 cores and hurts 32 shows here",
        kind: Kind::Session(SessionDef {
            topology: TopologySpec::OctoSocket,
            ..inline(CONTENDED_8S, 1, 4.0)
        }),
        threads: 1,
    },
    Workload {
        name: "repair_inline",
        why: "repair on: the only workload running RepairPlan::analyze, SsbHook, SSB, HTM and the machine's hooked dispatch path",
        kind: Kind::Session(SessionDef {
            repair: true,
            ..inline(REPAIRED, 19, 70.0)
        }),
        threads: 1,
    },
    Workload {
        name: "campaign_cold",
        why: "the paper grid as `experiments all` plans it, 245 cells at scale 2 on 2 pool threads, no cache: what a reproducing user waits for",
        kind: Kind::CampaignCold,
        threads: CAMPAIGN_THREADS,
    },
    Workload {
        name: "campaign_warm",
        why: "the same grid from a populated cell cache, 150 reruns: the machine is bypassed, cache load, views and emit are all the work",
        kind: Kind::CampaignWarm,
        threads: CAMPAIGN_THREADS,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
