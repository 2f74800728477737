//! Configuration of the LASER system.

use laser_machine::TopologySpec;
use laser_pebs::driver::DriverConfig;
use laser_pebs::imprecision::ImprecisionParams;

/// Tunables of the LASER system. The defaults are the values the paper uses
/// throughout its evaluation (SAV = 19, rate threshold = 1 000 HITMs/second).
#[derive(Debug, Clone, PartialEq)]
pub struct LaserConfig {
    /// PEBS Sample-After-Value (paper default: 19, a prime).
    pub sav: u32,
    /// Source lines with a HITM-record rate below this many HITMs/second are
    /// filtered from reports (paper default: 1 000).
    pub rate_threshold_hitm_per_sec: f64,
    /// LASERREPAIR is invoked once some false-sharing-dominated source line
    /// sustains at least this many HITM records per second (Section 4.4: the
    /// detector "periodically checks the HITM event rate, triggering
    /// LASERREPAIR if the rate of false sharing events exceeds a given
    /// threshold"). On a multi-socket topology the session cost-weights this
    /// threshold by the observed remote-HITM share — cross-socket transfers
    /// are dearer but correspondingly rarer per second, so a raw event-rate
    /// trigger would under-fire exactly where repair pays most; on a single
    /// socket the weighting is exactly 1 and the paper's semantics are
    /// unchanged.
    pub repair_rate_threshold: f64,
    /// How many instructions the application runs between driver polls /
    /// detector wake-ups.
    pub poll_interval_steps: u64,
    /// Detector processing cost per HITM record, in cycles, charged to the
    /// machine (the detector is a separate process sharing the chip).
    pub detector_cycles_per_record: u64,
    /// Minimum estimated stores-per-flush ratio for a repair plan to be
    /// considered profitable (Section 5.4: repair is not attempted when the
    /// ratio of stores to flushes is estimated to be low).
    pub min_stores_per_flush: f64,
    /// Repair plans touching more than this many basic blocks are considered
    /// too complex to instrument precisely (the paper's `lu_ncb` case).
    pub max_plan_blocks: usize,
    /// Whether online repair is enabled at all.
    pub enable_repair: bool,
    /// Haswell record-imprecision parameters.
    pub imprecision: ImprecisionParams,
    /// Driver overhead parameters.
    pub driver: DriverConfig,
    /// Seed for the imprecision model's random draws.
    pub seed: u64,
    /// The socket topology the deployment runs on (default: the paper's
    /// single-socket machine). A non-flat preset makes
    /// `SessionBuilder::build` configure the machine with the preset's
    /// topology and core count unless the caller supplied an explicit
    /// non-default machine configuration of their own.
    pub topology: TopologySpec,
}

impl Default for LaserConfig {
    fn default() -> Self {
        LaserConfig {
            sav: 19,
            rate_threshold_hitm_per_sec: 1_000.0,
            repair_rate_threshold: 20_000.0,
            poll_interval_steps: 10_000,
            detector_cycles_per_record: 35,
            min_stores_per_flush: 4.0,
            max_plan_blocks: 12,
            enable_repair: true,
            imprecision: ImprecisionParams::default(),
            driver: DriverConfig::default(),
            seed: 0xA5E12,
            topology: TopologySpec::Flat,
        }
    }
}

impl LaserConfig {
    /// A configuration with detection only (repair disabled); used for the
    /// accuracy experiments so that repair does not change what is measured.
    pub fn detection_only() -> Self {
        LaserConfig {
            enable_repair: false,
            ..Self::default()
        }
    }

    /// Override the SAV (builder-style).
    pub fn with_sav(mut self, sav: u32) -> Self {
        self.sav = sav;
        self
    }

    /// Override the report rate threshold (builder-style).
    pub fn with_rate_threshold(mut self, threshold: f64) -> Self {
        self.rate_threshold_hitm_per_sec = threshold;
        self
    }

    /// Override the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the socket topology (builder-style).
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_values() {
        let c = LaserConfig::default();
        assert_eq!(c.sav, 19);
        assert_eq!(c.rate_threshold_hitm_per_sec, 1_000.0);
        assert!(c.enable_repair);
    }

    #[test]
    fn builders_override_fields() {
        let c = LaserConfig::detection_only()
            .with_sav(7)
            .with_rate_threshold(64.0)
            .with_seed(1)
            .with_topology(TopologySpec::DualSocket);
        assert!(!c.enable_repair);
        assert_eq!(c.sav, 7);
        assert_eq!(c.rate_threshold_hitm_per_sec, 64.0);
        assert_eq!(c.seed, 1);
        assert_eq!(c.topology, TopologySpec::DualSocket);
        assert_eq!(LaserConfig::default().topology, TopologySpec::Flat);
    }
}
