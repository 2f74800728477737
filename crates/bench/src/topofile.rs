//! Bespoke socket topologies loaded from JSON: the custom arm of a cell's
//! deployment (see [`crate::config::CellConfig`]).
//!
//! The preset [`TopologySpec`] sweep covers symmetric 4-cores-per-socket
//! parts. Real deployments are lumpier: a fat socket of accelerator-adjacent
//! cores next to thin ones, or an interconnect priced differently from any
//! preset. [`CustomTopology`] carries such a layout — built on
//! [`Topology::asymmetric`] — parsed from a small JSON document:
//!
//! ```json
//! {
//!   "name": "fat-thin",
//!   "core_blocks": [6, 2],
//!   "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
//! }
//! ```
//!
//! Parsing follows the scenario-file convention: **everything** is validated
//! fail-fast — unknown keys, malformed numbers, more than
//! [`MAX_CUSTOM_CORES`] cores, a layout the machine would reject
//! ([`Topology::validate`]) — before anything simulates, so the
//! binaries can turn an invalid file into exit code 2 up front. `experiments
//! --topology-file FILE` deploys a whole campaign on the loaded layout;
//! scenario files carry the same object inline under `"custom_topology"`.
//!
//! Determinism contract: a custom topology changes *what is simulated* (the
//! machine's socket map and latency table), not how it is scheduled, so runs
//! on the same layout are byte-identical to each other. The layout is
//! rendered into [`CustomTopology::canonical`] and fingerprinted into the
//! cell cache (see [`crate::cache::CellConfig`]), so cells from different
//! layouts never alias.

use laser_core::TopologySpec;
use laser_machine::{LatencyModel, MachineConfig, SocketLatency, ThreadPlacement, Topology};
use laser_workloads::BuildOptions;
use serde::json::Value;

/// Upper bound on the total core count of a custom topology: the coherence
/// directory tracks sharers in a 64-bit bitmap, so anything wider cannot be
/// simulated.
pub const MAX_CUSTOM_CORES: usize = 64;

/// A parsed, validated bespoke topology: an asymmetric socket layout plus
/// the machine core count it implies (the sum of its core blocks).
///
/// The only constructors are [`CustomTopology::from_json`] /
/// [`CustomTopology::from_value`] / [`CustomTopology::load`], so every value
/// of this type has already passed [`Topology::validate`] against the
/// default latency model — holders never need to re-check.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomTopology {
    topology: Topology,
    num_cores: usize,
}

impl CustomTopology {
    /// Load and validate a topology file.
    ///
    /// # Errors
    /// The unreadable-file or invalid-spec message, prefixed with the path.
    pub fn load(path: &str) -> Result<CustomTopology, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        CustomTopology::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parse and validate a topology document.
    ///
    /// # Errors
    /// A message naming the first malformed or unknown field; nothing is
    /// silently ignored or defaulted away.
    pub fn from_json(text: &str) -> Result<CustomTopology, String> {
        let value = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        CustomTopology::from_value(&value)
    }

    /// Validate an already-parsed JSON document as a topology spec.
    ///
    /// # Errors
    /// As for [`CustomTopology::from_json`].
    pub fn from_value(value: &Value) -> Result<CustomTopology, String> {
        let pairs = match value {
            Value::Object(pairs) => pairs,
            _ => return Err("topology spec must be an object".to_string()),
        };
        let mut name: Option<String> = None;
        let mut core_blocks: Option<Vec<usize>> = None;
        let mut remote: Option<SocketLatency> = None;
        for (key, field) in pairs {
            match key.as_str() {
                "name" => name = Some(parse_name(field)?),
                "core_blocks" => core_blocks = Some(parse_core_blocks(field)?),
                "remote" => remote = Some(parse_remote(field)?),
                other => return Err(format!("unknown key \"{other}\"")),
            }
        }
        let Some(name) = name else {
            return Err("missing required key \"name\"".to_string());
        };
        let Some(core_blocks) = core_blocks else {
            return Err("missing required key \"core_blocks\"".to_string());
        };
        let Some(remote) = remote else {
            return Err("missing required key \"remote\"".to_string());
        };
        // Summed with a cap, not `.sum()`: huge blocks must not wrap past it.
        let Some(num_cores) = core_blocks.iter().try_fold(0usize, |sum, &cores| {
            sum.checked_add(cores)
                .filter(|&sum| sum <= MAX_CUSTOM_CORES)
        }) else {
            return Err(format!(
                "\"core_blocks\" sum to more than {MAX_CUSTOM_CORES} cores; the coherence \
                 directory admits at most {MAX_CUSTOM_CORES}"
            ));
        };
        let topology = Topology::asymmetric(name, core_blocks, remote);
        topology
            .validate(&LatencyModel::default())
            .map_err(|e| format!("invalid topology: {e}"))?;
        Ok(CustomTopology {
            num_cores,
            topology,
        })
    }

    /// The layout's display name, used to decorate cell keys (`laser@name`).
    pub fn name(&self) -> &str {
        self.topology.name()
    }

    /// Total machine cores: the sum of the per-socket core blocks.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The validated topology itself.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The machine deployment this layout implies.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            num_cores: self.num_cores,
            topology: self.topology.clone(),
            ..MachineConfig::default()
        }
    }

    /// Adapt build options to this layout, by the same rule the presets use
    /// ([`BuildOptions::for_topology`]): the thread count scales with the
    /// socket count and multi-socket layouts place threads round-robin so
    /// contended lines actually cross the interconnect. A single-socket
    /// layout leaves the options unchanged, like the flat preset.
    pub fn adapt(&self, opts: &BuildOptions) -> BuildOptions {
        let sockets = self.topology.num_sockets();
        if sockets <= 1 {
            return opts.clone();
        }
        BuildOptions {
            threads: opts.threads * sockets,
            placement: ThreadPlacement::RoundRobin,
            ..opts.clone()
        }
    }

    /// Deterministic one-line rendering of the full layout, for cache
    /// fingerprints: two custom topologies collide only if every field —
    /// name, per-socket core blocks and remote latency table — agrees.
    pub fn canonical(&self) -> String {
        let blocks: Vec<String> = self
            .topology
            .core_blocks()
            .iter()
            .map(usize::to_string)
            .collect();
        let remote = self.topology.remote_latency();
        format!(
            "custom:{};blocks={};remote_hitm={};remote_llc={};remote_dram={}",
            self.topology.name(),
            blocks.join(","),
            remote.remote_hitm,
            remote.remote_llc,
            remote.remote_dram
        )
    }
}

/// Layout names end up inside cell keys (`laser@name`) and newline-delimited
/// cache canonicals, so they are restricted to a filename-ish alphabet and
/// must not shadow a preset key (a custom layout named `2s` would alias the
/// preset's cells).
fn parse_name(value: &Value) -> Result<String, String> {
    let Value::Str(name) = value else {
        return Err("\"name\" must be a string".to_string());
    };
    if name.is_empty() || name.len() > 64 {
        return Err("\"name\" must be 1..=64 characters".to_string());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
    {
        return Err(format!(
            "\"name\" must be lowercase alphanumeric with '-' or '_', got \"{name}\""
        ));
    }
    if TopologySpec::parse(name).is_some() {
        return Err(format!(
            "\"name\" must not shadow the topology preset \"{name}\""
        ));
    }
    Ok(name.clone())
}

fn parse_core_blocks(value: &Value) -> Result<Vec<usize>, String> {
    let Value::Array(items) = value else {
        return Err("\"core_blocks\" must be an array of positive integers".to_string());
    };
    if items.is_empty() {
        return Err("\"core_blocks\" must name at least one socket".to_string());
    }
    let mut blocks = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Int(i) if *i > 0 => blocks.push(*i as usize),
            _ => {
                return Err(
                    "\"core_blocks\" entries must be positive integers (cores per socket)"
                        .to_string(),
                )
            }
        }
    }
    Ok(blocks)
}

fn parse_remote(value: &Value) -> Result<SocketLatency, String> {
    let Value::Object(pairs) = value else {
        return Err("\"remote\" must be an object".to_string());
    };
    let mut remote_hitm = None;
    let mut remote_llc = None;
    let mut remote_dram = None;
    for (key, field) in pairs {
        let slot = match key.as_str() {
            "remote_hitm" => &mut remote_hitm,
            "remote_llc" => &mut remote_llc,
            "remote_dram" => &mut remote_dram,
            other => return Err(format!("unknown \"remote\" key \"{other}\"")),
        };
        *slot = Some(match field {
            Value::Int(i) if *i >= 0 => *i as u64,
            _ => return Err(format!("\"remote.{key}\" must be a non-negative integer")),
        });
    }
    match (remote_hitm, remote_llc, remote_dram) {
        (Some(remote_hitm), Some(remote_llc), Some(remote_dram)) => Ok(SocketLatency {
            remote_hitm,
            remote_llc,
            remote_dram,
        }),
        (None, _, _) => Err("\"remote\" is missing \"remote_hitm\"".to_string()),
        (_, None, _) => Err("\"remote\" is missing \"remote_llc\"".to_string()),
        (_, _, None) => Err("\"remote\" is missing \"remote_dram\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;

    const FAT_THIN: &str = r#"{
        "name": "fat-thin",
        "core_blocks": [6, 2],
        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
    }"#;

    #[test]
    fn parses_a_valid_spec() {
        let custom = CustomTopology::from_json(FAT_THIN).unwrap();
        assert_eq!(custom.name(), "fat-thin");
        assert_eq!(custom.num_cores(), 8);
        assert_eq!(custom.topology().num_sockets(), 2);
        assert_eq!(custom.topology().core_blocks(), &[6, 2]);
        assert_eq!(custom.topology().remote_latency().remote_hitm, 220);
        // The widest layout the directory admits.
        let wide = CustomTopology::from_json(
            r#"{"name": "wide", "core_blocks": [32, 32],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
        )
        .unwrap();
        assert_eq!(wide.num_cores(), MAX_CUSTOM_CORES);
    }

    #[test]
    fn canonical_covers_every_field() {
        let custom = CustomTopology::from_json(FAT_THIN).unwrap();
        assert_eq!(
            custom.canonical(),
            "custom:fat-thin;blocks=6,2;remote_hitm=220;remote_llc=100;remote_dram=310"
        );
    }

    #[test]
    fn machine_config_matches_the_layout() {
        let custom = CustomTopology::from_json(FAT_THIN).unwrap();
        let machine = custom.machine_config();
        assert_eq!(machine.num_cores, 8);
        assert_eq!(machine.topology.num_sockets(), 2);
    }

    #[test]
    fn adapt_scales_threads_with_sockets_and_goes_round_robin() {
        let custom = CustomTopology::from_json(FAT_THIN).unwrap();
        let opts = custom.adapt(&BuildOptions::default());
        assert_eq!(opts.threads, BuildOptions::default().threads * 2);
        assert_eq!(opts.placement, ThreadPlacement::RoundRobin);

        // A single-socket layout leaves the options unchanged, like flat.
        let solo = CustomTopology::from_json(
            r#"{"name": "solo", "core_blocks": [4],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
        )
        .unwrap();
        assert_eq!(
            solo.adapt(&BuildOptions::default()),
            BuildOptions::default()
        );
    }

    #[test]
    fn invalid_specs_are_rejected_with_the_offending_field() {
        let cases: &[(&str, &str)] = &[
            ("[]", "must be an object"),
            ("{", "not valid JSON"),
            (
                r#"{"core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "missing required key \"name\"",
            ),
            (
                r#"{"name": "x", "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "missing required key \"core_blocks\"",
            ),
            (
                r#"{"name": "x", "core_blocks": [4]}"#,
                "missing required key \"remote\"",
            ),
            (
                r#"{"name": "", "core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "1..=64 characters",
            ),
            (
                r#"{"name": "Has Space", "core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "lowercase alphanumeric",
            ),
            (
                r#"{"name": "2s", "core_blocks": [4, 4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "must not shadow the topology preset",
            ),
            (
                r#"{"name": "x", "core_blocks": [], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "at least one socket",
            ),
            (
                r#"{"name": "x", "core_blocks": [4, 0], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "positive integers",
            ),
            (
                r#"{"name": "x", "core_blocks": [4, 1.5], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "positive integers",
            ),
            (
                r#"{"name": "x", "core_blocks": [65], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "at most 64",
            ),
            (
                r#"{"name": "x", "core_blocks": [33, 32], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "sum to more than 64 cores",
            ),
            // These blocks sum past `usize::MAX` and once wrapped to 0 cores.
            (
                r#"{"name": "x", "core_blocks": [9223372036854775807, 9223372036854775807, 2], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#,
                "at most 64",
            ),
            (
                r#"{"name": "x", "core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100}}"#,
                "missing \"remote_dram\"",
            ),
            (
                r#"{"name": "x", "core_blocks": [4], "remote": {"remote_hitm": -1, "remote_llc": 100, "remote_dram": 310}}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "x", "core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310, "extra": 1}}"#,
                "unknown \"remote\" key",
            ),
            (
                r#"{"name": "x", "core_blocks": [4], "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}, "sockets": 2}"#,
                "unknown key \"sockets\"",
            ),
            // remote_hitm below the local HITM latency: Topology::validate
            // rejects an interconnect cheaper than staying on-socket.
            (
                r#"{"name": "x", "core_blocks": [4], "remote": {"remote_hitm": 1, "remote_llc": 100, "remote_dram": 310}}"#,
                "invalid topology",
            ),
        ];
        for (text, needle) in cases {
            let outcome = CustomTopology::from_json(text);
            match outcome {
                Err(message) => assert!(
                    message.contains(needle),
                    "{text}: expected {needle:?} in {message:?}"
                ),
                Ok(_) => panic!("{text}: expected an error containing {needle:?}"),
            }
        }
    }

    #[test]
    fn load_surfaces_missing_files_with_the_path() {
        let message = CustomTopology::load("/nonexistent/topo.json").unwrap_err();
        assert!(message.contains("/nonexistent/topo.json"), "{message}");
    }

    fn cell<'a>(opts: &'a BuildOptions, custom: Option<&'a CustomTopology>) -> CellConfig<'a> {
        CellConfig {
            topology: TopologySpec::DualSocket,
            custom_topology: custom,
            ..CellConfig::flat("histogram'", "laser", opts)
        }
    }

    #[test]
    fn deployment_preset_arm_matches_the_preset_helpers() {
        let opts = BuildOptions::default();
        let deploy = cell(&opts, None);
        assert_eq!(deploy.cell_key(), "laser@2s");
        assert!(deploy.canonical().contains("\ntopology=2s\n"));
        assert_eq!(
            deploy.machine_config().num_cores,
            MachineConfig::for_topology(TopologySpec::DualSocket).num_cores
        );
        assert_eq!(
            deploy.adapted_opts(),
            BuildOptions::default().for_topology(TopologySpec::DualSocket)
        );
        // The flat preset stays bare, preserving pre-topology cell naming.
        assert_eq!(
            CellConfig::flat("histogram'", "laser", &opts).cell_key(),
            "laser"
        );
    }

    #[test]
    fn deployment_custom_arm_uses_the_layout() {
        let custom = CustomTopology::from_json(FAT_THIN).unwrap();
        let opts = BuildOptions::default();
        // The layout overrides whatever preset the cell names.
        let deploy = cell(&opts, Some(&custom));
        assert_eq!(deploy.cell_key(), "laser@fat-thin");
        assert!(deploy
            .canonical()
            .contains(&format!("\ntopology={}\n", custom.canonical())));
        assert_eq!(deploy.machine_config().num_cores, 8);
        assert_eq!(deploy.adapted_opts(), custom.adapt(&opts));
    }

    #[test]
    fn hostile_documents_are_errors_not_crashes() {
        let flood = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let deep_blocks = format!(
            r#"{{"name": "x", "core_blocks": {}4{}, "remote": {{}}}}"#,
            "[".repeat(128),
            "]".repeat(128)
        );
        let cases: &[(&str, &str)] = &[
            (&flood, "nested deeper than 128 levels"),
            (&deep_blocks, "nested deeper than 128 levels"),
            (r#"{"name": "x", "core_blocks": [04]}"#, "leading zero"),
            (r#"{"name": "x", "core_blocks": [4.]}"#, "expected a digit"),
        ];
        for (text, needle) in cases {
            let e = CustomTopology::from_json(text).unwrap_err();
            assert!(
                e.contains("not valid JSON") && e.contains(needle),
                "{} -> {e} (wanted {needle:?})",
                &text[..text.len().min(40)]
            );
        }
    }
}
