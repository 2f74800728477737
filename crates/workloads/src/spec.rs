//! Workload specifications, the known-performance-bug database, and the
//! registry of all 35 evaluated configurations.

use laser_machine::{ThreadPlacement, TopologySpec, WorkloadImage};

use crate::microbench::CharacterizationCase;

/// Benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Phoenix 1.0 (map-reduce kernels).
    Phoenix,
    /// PARSEC 3.0.
    Parsec,
    /// Splash2x.
    Splash2x,
    /// The Section 3.1 HITM-record characterization cases (never in the
    /// registry).
    Characterization,
}

/// The actual kind of a known contention bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugKind {
    /// Distinct data co-located in one cache line.
    FalseSharing,
    /// The same data contended by multiple threads.
    TrueSharing,
}

/// A known performance bug, from the database the paper assembled out of
/// prior work plus the new bugs LASER found (Section 7.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnownBug {
    /// Synthetic source file of the contending code.
    pub file: String,
    /// Synthetic source lines of the contending code; a detector report that
    /// names any of these lines counts as finding the bug.
    pub lines: Vec<u32>,
    /// Whether the contention is true or false sharing.
    pub kind: BugKind,
    /// Human-readable description.
    pub description: String,
}

impl KnownBug {
    /// Construct a bug record.
    pub fn new(file: &str, lines: &[u32], kind: BugKind, description: &str) -> Self {
        KnownBug {
            file: file.to_string(),
            lines: lines.to_vec(),
            kind,
            description: description.to_string(),
        }
    }

    /// True if a reported `file:line` location falls on this bug.
    pub fn matches(&self, file: &str, line: u32) -> bool {
        self.file == file && self.lines.contains(&line)
    }
}

/// How a workload behaves under Sheriff (paper Table 1: most of the suite
/// either crashes or uses constructs Sheriff does not support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SheriffCompat {
    /// Runs under both Sheriff-Detect and Sheriff-Protect.
    Works,
    /// Encounters a runtime error ("x" in Table 1).
    Crash,
    /// Uses unsupported constructs such as spin locks or OpenMP ("i").
    Incompatible,
}

/// Options controlling how a workload image is built.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOptions {
    /// Number of worker threads (the paper's machine runs 4).
    pub threads: usize,
    /// Input-scale multiplier applied to iteration counts (1.0 = default).
    pub scale: f64,
    /// Build the manually-fixed variant (padding / alignment / restructuring)
    /// instead of the buggy one.
    pub fixed: bool,
    /// Extra bytes added before every heap allocation, modelling the
    /// incidental layout shift some tools cause (the paper's `lu_ncb` case).
    pub layout_perturbation: u64,
    /// How the machine lays the workload's threads out over the sockets
    /// (default: packed, the pre-topology mapping; irrelevant on a
    /// single-socket topology).
    pub placement: ThreadPlacement,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threads: 4,
            scale: 1.0,
            fixed: false,
            layout_perturbation: 0,
            placement: ThreadPlacement::default(),
        }
    }
}

impl BuildOptions {
    /// Options for the manually-fixed variant at default scale.
    pub fn fixed() -> Self {
        BuildOptions {
            fixed: true,
            ..Default::default()
        }
    }

    /// Options at a reduced input scale (Sheriff's `simlarge`-style inputs,
    /// also used by the Criterion benches to stay fast).
    pub fn scaled(scale: f64) -> Self {
        BuildOptions {
            scale,
            ..Default::default()
        }
    }

    /// Override the worker-thread count (builder-style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the thread placement (builder-style).
    pub fn with_placement(mut self, placement: ThreadPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// The options a topology preset runs at: the thread count scales with
    /// the socket count (4 threads/socket, matching the preset's 4
    /// cores/socket) and multi-socket presets place threads round-robin
    /// across sockets so contended lines actually cross the interconnect.
    /// The flat preset returns the options unchanged — byte-identical to the
    /// pre-topology behaviour.
    pub fn for_topology(self, spec: TopologySpec) -> Self {
        if spec == TopologySpec::Flat {
            return self;
        }
        BuildOptions {
            threads: self.threads * spec.sockets(),
            placement: ThreadPlacement::RoundRobin,
            ..self
        }
    }
}

/// A workload: its metadata, known bugs and image builder.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Workload name as the paper spells it (e.g. `raytrace.parsec`).
    pub name: &'static str,
    /// The suite it comes from.
    pub suite: Suite,
    /// Known performance bugs (empty for the benign workloads).
    pub known_bugs: Vec<KnownBug>,
    /// Whether Sheriff can run it.
    pub sheriff: SheriffCompat,
    /// True if a manually-fixed variant exists (Figures 11/14).
    pub has_fix: bool,
    pub(crate) build_fn: Build,
}

/// How a [`WorkloadSpec`] builds its image.
#[derive(Clone, Copy)]
pub(crate) enum Build {
    /// A registry workload: a kernel shaped by the build options.
    Options(fn(&BuildOptions) -> WorkloadImage),
    /// A characterization case, whose two-thread image ignores the options.
    Case(CharacterizationCase),
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("known_bugs", &self.known_bugs.len())
            .field("sheriff", &self.sheriff)
            .finish()
    }
}

impl WorkloadSpec {
    /// Build the workload image with the given options. The options'
    /// thread placement is stamped onto the image here, so every workload
    /// honours it without each builder having to thread it through.
    pub fn build(&self, opts: &BuildOptions) -> WorkloadImage {
        let mut image = match self.build_fn {
            Build::Options(build) => build(opts),
            Build::Case(case) => case.build().image,
        };
        image.set_thread_placement(opts.placement);
        image
    }

    /// Build with default options (4 threads, native-style input, unfixed).
    pub fn build_default(&self) -> WorkloadImage {
        self.build(&BuildOptions::default())
    }

    /// The characterization case this workload is, if it is one
    /// ([`CharacterizationCase::spec`]).
    pub fn characterization(&self) -> Option<&CharacterizationCase> {
        match &self.build_fn {
            Build::Case(case) => Some(case),
            Build::Options(_) => None,
        }
    }

    /// True if this workload has at least one known performance bug.
    pub fn has_bugs(&self) -> bool {
        !self.known_bugs.is_empty()
    }

    /// True if a reported location matches any known bug of this workload.
    pub fn is_known_bug_location(&self, file: &str, line: u32) -> bool {
        self.known_bugs.iter().any(|b| b.matches(file, line))
    }
}

/// The full registry: all 35 workload configurations of the paper's Table 1,
/// in the table's (alphabetical) order.
pub fn registry() -> Vec<WorkloadSpec> {
    let mut v = Vec::new();
    v.extend(crate::phoenix::all());
    v.extend(crate::parsec::all());
    v.extend(crate::splash2x::all());
    // Present in the paper's alphabetical order for familiarity.
    v.sort_by_key(|s| s.name);
    v
}

/// Find a workload by name.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_35_workloads() {
        let r = registry();
        assert_eq!(
            r.len(),
            35,
            "{:?}",
            r.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        // No duplicate names.
        let mut names: Vec<_> = r.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), 35);
    }

    #[test]
    fn nine_workloads_have_known_bugs() {
        let buggy: Vec<_> = registry().into_iter().filter(|s| s.has_bugs()).collect();
        let names: Vec<_> = buggy.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "bodytrack",
                "dedup",
                "histogram'",
                "kmeans",
                "linear_regression",
                "lu_ncb",
                "reverse_index",
                "streamcluster",
                "volrend",
            ]
        );
    }

    #[test]
    fn every_workload_builds_at_small_scale() {
        for spec in registry() {
            let image = spec.build(&BuildOptions::scaled(0.05));
            assert!(!image.threads().is_empty(), "{} has no threads", spec.name);
            assert!(image.program().num_insts() > 0, "{} has no code", spec.name);
        }
    }

    #[test]
    fn bug_matching() {
        let bug = KnownBug::new("a.c", &[10, 11], BugKind::FalseSharing, "demo");
        assert!(bug.matches("a.c", 10));
        assert!(!bug.matches("a.c", 12));
        assert!(!bug.matches("b.c", 10));
    }

    #[test]
    fn find_by_name() {
        assert!(find("kmeans").is_some());
        assert!(find("histogram'").is_some());
        assert!(find("does_not_exist").is_none());
    }

    #[test]
    fn topology_options_scale_threads_and_spread_placement() {
        let base = BuildOptions::scaled(0.1);
        let flat = base.clone().for_topology(TopologySpec::Flat);
        assert_eq!(flat, base, "flat preset leaves the options untouched");
        let dual = base.clone().for_topology(TopologySpec::DualSocket);
        assert_eq!(dual.threads, 8);
        assert_eq!(dual.placement, ThreadPlacement::RoundRobin);
        assert_eq!(dual.scale, base.scale);
        let quad = base.clone().for_topology(TopologySpec::QuadSocket);
        assert_eq!(quad.threads, 16);
        let octo = base.clone().for_topology(TopologySpec::OctoSocket);
        assert_eq!(octo.threads, 32);
        assert_eq!(octo.placement, ThreadPlacement::RoundRobin);
        // Build helpers.
        let o = BuildOptions::default()
            .with_threads(0)
            .with_placement(ThreadPlacement::RoundRobin);
        assert_eq!(o.threads, 1, "thread count clamps to at least one");
        assert_eq!(o.placement, ThreadPlacement::RoundRobin);
    }

    #[test]
    fn build_stamps_the_placement_onto_the_image() {
        let spec = find("histogram'").unwrap();
        let image =
            spec.build(&BuildOptions::scaled(0.05).with_placement(ThreadPlacement::RoundRobin));
        assert_eq!(image.thread_placement(), ThreadPlacement::RoundRobin);
        let image = spec.build(&BuildOptions::scaled(0.05));
        assert_eq!(image.thread_placement(), ThreadPlacement::Packed);
    }

    #[test]
    fn fixed_variants_exist_where_claimed() {
        for spec in registry() {
            if spec.has_fix {
                let fixed = spec.build(&BuildOptions {
                    fixed: true,
                    scale: 0.05,
                    ..Default::default()
                });
                assert!(
                    !fixed.threads().is_empty(),
                    "{} fixed variant broken",
                    spec.name
                );
            }
        }
    }
}
