//! The cycle cost model.
//!
//! The absolute values are loosely calibrated to a Haswell-class part (L1 hit
//! ≈ 4 cycles, LLC hit ≈ 40, cross-core HITM transfer ≈ 90, DRAM ≈ 200); what
//! matters for reproducing the paper's figures is the *ratio* between a local
//! hit and a HITM transfer, because that ratio is what contention repair
//! recovers.

use std::fmt;

/// Latencies (in cycles) charged by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Non-memory instruction (ALU, move, compare, nop).
    pub alu: u64,
    /// Branch or jump.
    pub branch: u64,
    /// Load/store hitting in the local L1.
    pub l1_hit: u64,
    /// Load/store hitting in the shared LLC (line not present locally, not
    /// modified remotely).
    pub llc_hit: u64,
    /// Access to a line that is Modified in a remote core's cache — the HITM
    /// case. This is the expensive coherence transition LASER removes.
    pub hitm: u64,
    /// Cold / capacity miss to DRAM.
    pub dram: u64,
    /// Explicit memory fence (store-buffer drain).
    pub fence: u64,
    /// Extra cost of an atomic read-modify-write on top of the line access.
    pub atomic_extra: u64,
    /// Starting a hardware transaction.
    pub htm_begin: u64,
    /// Committing a hardware transaction.
    pub htm_commit: u64,
    /// Pause (spin hint).
    pub pause: u64,
    /// Core clock frequency in Hz, used to convert cycles to seconds for the
    /// detector's HITM-rate thresholds (the paper's machine runs at 3.4 GHz).
    pub freq_hz: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            alu: 1,
            branch: 1,
            l1_hit: 4,
            llc_hit: 40,
            hitm: 90,
            dram: 200,
            fence: 20,
            atomic_extra: 15,
            htm_begin: 30,
            htm_commit: 30,
            pause: 2,
            freq_hz: 3_400_000_000,
        }
    }
}

/// Why a [`LatencyModel`] was rejected by [`LatencyModel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatencyError {
    /// `freq_hz` is zero: every cycles-to-seconds conversion would divide by
    /// zero and the detector's HITM-rate thresholds become meaningless.
    ZeroFrequency,
    /// The memory hierarchy is priced out of order (e.g. a DRAM access
    /// cheaper than an LLC hit), which inverts every ratio the figures rest
    /// on.
    NonMonotone {
        /// The faster level that should be the slower one.
        slower: &'static str,
        /// Its cost in cycles.
        slower_cycles: u64,
        /// The level it undercuts.
        faster: &'static str,
        /// That level's cost in cycles.
        faster_cycles: u64,
    },
    /// A per-instruction cost is zero: a register-only spin would never
    /// advance simulated time (and a zero `l1_hit` divides
    /// [`LatencyModel::hitm_penalty_ratio`] by zero). The machine's run-ahead
    /// relies on every instruction advancing its core clock by at least one
    /// cycle.
    ZeroCost {
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyError::ZeroFrequency => write!(f, "freq_hz must be non-zero"),
            LatencyError::NonMonotone {
                slower,
                slower_cycles,
                faster,
                faster_cycles,
            } => write!(
                f,
                "non-monotone latencies: {slower} ({slower_cycles} cycles) must cost at least \
                 {faster} ({faster_cycles} cycles)"
            ),
            LatencyError::ZeroCost { field } => {
                write!(f, "{field} must cost at least 1 cycle")
            }
        }
    }
}

impl std::error::Error for LatencyError {}

/// The latencies the fetch/execute loop charges directly, copied out of the
/// [`LatencyModel`] once at machine construction. `Copy`, so `Machine::step`
/// reads them as plain locals instead of cloning the full model (or fighting
/// the borrow checker for a reference into `self`) on every instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotLatency {
    pub(crate) alu: u64,
    pub(crate) branch: u64,
    pub(crate) fence: u64,
    pub(crate) pause: u64,
    pub(crate) atomic_extra: u64,
    /// The least any instruction can cost: `min(alu, branch, pause, fence,
    /// l1_hit)`, at least 1 for every validated model. The run-ahead horizon
    /// in `Machine::run_steps` converts a step budget into a clock bound
    /// with it.
    pub(crate) floor: u64,
}

impl From<&LatencyModel> for HotLatency {
    fn from(m: &LatencyModel) -> Self {
        HotLatency {
            alu: m.alu,
            branch: m.branch,
            fence: m.fence,
            pause: m.pause,
            atomic_extra: m.atomic_extra,
            floor: m
                .instruction_costs()
                .iter()
                .fold(u64::MAX, |floor, &(_, cost)| floor.min(cost)),
        }
    }
}

impl LatencyModel {
    /// Convert a cycle count to seconds at this model's clock frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// The costs an instruction can be charged on its own; every instruction
    /// costs at least the least of them (a memory access costs at least an
    /// L1 hit, an atomic adds to its access, a halt costs a branch).
    fn instruction_costs(&self) -> [(&'static str, u64); 5] {
        [
            ("alu", self.alu),
            ("branch", self.branch),
            ("pause", self.pause),
            ("fence", self.fence),
            ("l1_hit", self.l1_hit),
        ]
    }

    /// Reject configurations that would produce nonsense downstream: a zero
    /// clock frequency (the detector's HITM-per-second rates divide by it),
    /// a zero per-instruction cost (a register-only spin would never advance
    /// simulated time) or a memory hierarchy priced out of order
    /// (`l1_hit ≤ llc_hit ≤ hitm ≤ dram` must hold). Called by
    /// `Machine::new` — and therefore by `SessionBuilder::build` — so bad
    /// models are rejected at construction time, not discovered as corrupt
    /// rates at report time.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), LatencyError> {
        if self.freq_hz == 0 {
            return Err(LatencyError::ZeroFrequency);
        }
        if let Some(&(field, _)) = self.instruction_costs().iter().find(|&&(_, c)| c == 0) {
            return Err(LatencyError::ZeroCost { field });
        }
        let ladder = [
            ("l1_hit", self.l1_hit),
            ("llc_hit", self.llc_hit),
            ("hitm", self.hitm),
            ("dram", self.dram),
        ];
        for pair in ladder.windows(2) {
            let ((faster, fc), (slower, sc)) = (pair[0], pair[1]);
            if sc < fc {
                return Err(LatencyError::NonMonotone {
                    slower,
                    slower_cycles: sc,
                    faster,
                    faster_cycles: fc,
                });
            }
        }
        Ok(())
    }

    /// The ratio between a HITM transfer and a local L1 hit; the headroom that
    /// contention repair can recover per access.
    pub fn hitm_penalty_ratio(&self) -> f64 {
        self.hitm as f64 / self.l1_hit as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_ordered_sensibly() {
        let m = LatencyModel::default();
        assert!(m.l1_hit < m.llc_hit);
        assert!(m.llc_hit < m.hitm);
        assert!(m.hitm < m.dram);
        assert!(m.hitm_penalty_ratio() > 10.0);
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_nonsense() {
        LatencyModel::default().validate().unwrap();
        let zero = LatencyModel {
            freq_hz: 0,
            ..LatencyModel::default()
        };
        assert_eq!(zero.validate(), Err(LatencyError::ZeroFrequency));
        let inverted = LatencyModel {
            dram: 10, // < hitm (90)
            ..LatencyModel::default()
        };
        assert_eq!(
            inverted.validate(),
            Err(LatencyError::NonMonotone {
                slower: "dram",
                slower_cycles: 10,
                faster: "hitm",
                faster_cycles: 90,
            })
        );
        for field in ["alu", "branch", "pause", "fence", "l1_hit"] {
            let mut free = LatencyModel::default();
            match field {
                "alu" => free.alu = 0,
                "branch" => free.branch = 0,
                "pause" => free.pause = 0,
                "fence" => free.fence = 0,
                _ => free.l1_hit = 0,
            }
            assert_eq!(free.validate(), Err(LatencyError::ZeroCost { field }));
        }
        // Equal levels are allowed (degenerate but not nonsense).
        let flat = LatencyModel {
            l1_hit: 40,
            llc_hit: 40,
            hitm: 90,
            ..LatencyModel::default()
        };
        flat.validate().unwrap();
    }

    #[test]
    fn latency_error_display_is_stable() {
        assert_eq!(
            LatencyError::ZeroFrequency.to_string(),
            "freq_hz must be non-zero"
        );
        assert_eq!(
            LatencyError::NonMonotone {
                slower: "dram",
                slower_cycles: 10,
                faster: "hitm",
                faster_cycles: 90,
            }
            .to_string(),
            "non-monotone latencies: dram (10 cycles) must cost at least hitm (90 cycles)"
        );
        assert_eq!(
            LatencyError::ZeroCost { field: "pause" }.to_string(),
            "pause must cost at least 1 cycle"
        );
    }

    #[test]
    fn floor_is_the_cheapest_instruction() {
        assert_eq!(HotLatency::from(&LatencyModel::default()).floor, 1);
        let dear = LatencyModel {
            alu: 3,
            branch: 5,
            pause: 7,
            ..LatencyModel::default()
        };
        assert_eq!(HotLatency::from(&dear).floor, 3);
    }

    #[test]
    fn cycle_second_conversion() {
        let m = LatencyModel::default();
        let s = m.cycles_to_seconds(3_400_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
