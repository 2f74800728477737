//! Socket-aware machine topology.
//!
//! The paper evaluates LASER on a single-socket Haswell, where every HITM
//! transfer costs the same. On multi-socket parts the picture sharpens: a
//! HITM serviced by a core on *another* socket crosses the interconnect and
//! costs 2–3× a local one, LLC hits split into on- and cross-socket
//! transfers, and DRAM becomes NUMA (each line has a home socket). This
//! module makes the cost model pluggable along that axis.
//!
//! A [`Topology`] maps cores to sockets and prices each socket-resolved
//! access class ([`ResolvedClass`]): the coherence directory still decides
//! *what* happened ([`AccessClass`]), the topology decides *where* it was
//! serviced and what that costs. The default [`Topology::single_socket`]
//! resolves every access to its local class priced straight from the base
//! [`LatencyModel`], so a single-socket machine is **byte-identical** to the
//! pre-topology flat cost model.
//!
//! [`TopologySpec`] names the four preset topologies the bench layer sweeps
//! (`flat`, `2s`, `4s`, `8s`); it is `Copy + Ord + Hash` so it can serve as a
//! grid axis and a CLI flag, and resolves to a full [`Topology`] on demand.
//! A machine has at most 64 cores, the width of the coherence directory's
//! sharer bitmap.
//!
//! Sockets need not be uniform: [`Topology::asymmetric`] takes an explicit
//! per-socket core-block layout (e.g. a fat socket of accelerator-adjacent
//! cores next to thin ones), and every socket-mapping query honours it.

use std::fmt;

use crate::addr::{line_of, Addr};
use crate::coherence::{AccessClass, AccessOutcome};
use crate::timing::{LatencyError, LatencyModel};

/// Where an access was finally satisfied, with the socket axis resolved.
///
/// The local variants correspond 1:1 to [`AccessClass`] and are priced from
/// the base [`LatencyModel`]; the remote variants only arise on multi-socket
/// topologies and are priced from the topology's [`SocketLatency`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedClass {
    /// Satisfied from the local L1.
    L1Hit,
    /// Satisfied on-chip, on the accessing core's socket.
    LlcLocal,
    /// Satisfied from another socket's LLC (clean cross-socket transfer).
    LlcRemote,
    /// HITM serviced by a core on the same socket.
    HitmLocal,
    /// HITM serviced by a core on another socket — the expensive cross-socket
    /// coherence transfer that makes contention repair pay off even more.
    HitmRemote,
    /// Miss to DRAM attached to the accessing core's socket.
    DramLocal,
    /// Miss to DRAM homed on another socket (NUMA remote access).
    DramRemote,
}

/// Cross-socket latencies (in cycles) layered over a base [`LatencyModel`].
///
/// Local classes are always priced from the base model; these three fields
/// price their remote counterparts. Validation requires each remote latency
/// to be at least its local counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketLatency {
    /// Cross-socket HITM transfer (local: [`LatencyModel::hitm`]).
    pub remote_hitm: u64,
    /// Cross-socket LLC hit (local: [`LatencyModel::llc_hit`]).
    pub remote_llc: u64,
    /// Remote-homed DRAM access (local: [`LatencyModel::dram`]).
    pub remote_dram: u64,
}

/// How a workload's threads are laid out over the sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThreadPlacement {
    /// Fill socket 0's cores first, then socket 1's, and so on (thread `t`
    /// runs on core `t % num_cores`). This is the pre-topology behaviour, so
    /// it is the default.
    #[default]
    Packed,
    /// Alternate sockets: consecutive threads land on different sockets, so
    /// threads sharing a cache line contend *across* the interconnect. On a
    /// single-socket topology this is identical to [`ThreadPlacement::Packed`].
    RoundRobin,
}

impl fmt::Display for ThreadPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadPlacement::Packed => write!(f, "packed"),
            ThreadPlacement::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// Why a [`Topology`] was rejected at validation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology declares no sockets.
    NoSockets,
    /// An asymmetric layout declares a socket with zero cores.
    EmptySocket {
        /// The offending socket index.
        socket: usize,
    },
    /// A remote latency undercuts its local counterpart, which would make
    /// cross-socket transfers *cheaper* than staying on the socket.
    RemoteFasterThanLocal {
        /// Which latency is inverted (e.g. `remote_hitm`).
        what: &'static str,
        /// The remote value.
        remote: u64,
        /// The local counterpart.
        local: u64,
    },
    /// The base latency model itself is invalid.
    Latency(LatencyError),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoSockets => write!(f, "topology declares zero sockets"),
            TopologyError::EmptySocket { socket } => {
                write!(f, "socket {socket} declares a zero-core block")
            }
            TopologyError::RemoteFasterThanLocal {
                what,
                remote,
                local,
            } => write!(
                f,
                "{what} ({remote} cycles) undercuts its local counterpart ({local} cycles)"
            ),
            TopologyError::Latency(e) => write!(f, "latency model: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<LatencyError> for TopologyError {
    fn from(e: LatencyError) -> Self {
        TopologyError::Latency(e)
    }
}

/// A machine topology: how many sockets there are, how cores map onto them,
/// and what crossing the interconnect costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    num_sockets: usize,
    remote: SocketLatency,
    /// Explicit per-socket core-block sizes for asymmetric layouts. Empty
    /// means the symmetric default: cores split into `num_sockets` contiguous
    /// equal blocks (the last may be short).
    core_blocks: Vec<usize>,
}

impl Default for Topology {
    /// The paper's machine: one socket, flat costs.
    fn default() -> Self {
        Topology::single_socket()
    }
}

impl Topology {
    /// A custom symmetric topology (cores split into equal contiguous blocks).
    /// Use the preset constructors for the standard parts, or
    /// [`Topology::asymmetric`] for uneven per-socket core blocks.
    pub fn new(name: impl Into<String>, num_sockets: usize, remote: SocketLatency) -> Self {
        Topology {
            name: name.into(),
            num_sockets,
            remote,
            core_blocks: Vec::new(),
        }
    }

    /// A custom topology with an explicit per-socket core-block layout: socket
    /// `i` owns the contiguous block of `core_blocks[i]` cores that starts
    /// where socket `i - 1`'s block ends. The socket count is the number of
    /// blocks. Cores past the declared blocks (when a machine is built with
    /// more cores than the layout names) spill onto the last socket;
    /// [`Topology::validate`] rejects zero-core blocks.
    pub fn asymmetric(
        name: impl Into<String>,
        core_blocks: Vec<usize>,
        remote: SocketLatency,
    ) -> Self {
        Topology {
            name: name.into(),
            num_sockets: core_blocks.len(),
            remote,
            core_blocks,
        }
    }

    /// The single-socket (flat) topology: every access resolves to its local
    /// class, priced exactly as the base [`LatencyModel`] — byte-identical to
    /// the pre-topology cost model. The remote table is populated (with the
    /// dual-socket values) but unreachable.
    pub fn single_socket() -> Self {
        Topology::new("flat", 1, Topology::dual_socket_remote())
    }

    /// A two-socket part: cross-socket HITMs cost ~2.5× a local one,
    /// cross-socket LLC hits and remote DRAM pay the interconnect hop.
    pub fn dual_socket() -> Self {
        Topology::new("2s", 2, Topology::dual_socket_remote())
    }

    /// A four-socket part: one more hop on average than the dual-socket
    /// interconnect, so every remote class is a little dearer again.
    pub fn quad_socket() -> Self {
        Topology::new(
            "4s",
            4,
            SocketLatency {
                remote_hitm: 260,
                remote_llc: 130,
                remote_dram: 360,
            },
        )
    }

    /// An eight-socket part (32 cores): glueless interconnects top out around
    /// four sockets, so these parts route through a node controller and every
    /// remote class pays another hop over the quad-socket table.
    pub fn octo_socket() -> Self {
        Topology::new(
            "8s",
            8,
            SocketLatency {
                remote_hitm: 300,
                remote_llc: 160,
                remote_dram: 410,
            },
        )
    }

    fn dual_socket_remote() -> SocketLatency {
        SocketLatency {
            remote_hitm: 220,
            remote_llc: 100,
            remote_dram: 310,
        }
    }

    /// The topology's display name (`flat`, `2s`, `4s`, or custom).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.num_sockets
    }

    /// The cross-socket latency table.
    pub fn remote_latency(&self) -> SocketLatency {
        self.remote
    }

    /// The explicit per-socket core-block layout, or an empty slice for the
    /// symmetric default.
    pub fn core_blocks(&self) -> &[usize] {
        &self.core_blocks
    }

    /// Check the topology (and its base latency model) for configurations
    /// that would price nonsense: zero sockets, remote transfers cheaper than
    /// local ones, or an invalid base model.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self, base: &LatencyModel) -> Result<(), TopologyError> {
        base.validate()?;
        if self.num_sockets == 0 {
            return Err(TopologyError::NoSockets);
        }
        if let Some(socket) = self.core_blocks.iter().position(|&b| b == 0) {
            return Err(TopologyError::EmptySocket { socket });
        }
        let checks = [
            ("remote_hitm", self.remote.remote_hitm, base.hitm),
            ("remote_llc", self.remote.remote_llc, base.llc_hit),
            ("remote_dram", self.remote.remote_dram, base.dram),
        ];
        for (what, remote, local) in checks {
            if remote < local {
                return Err(TopologyError::RemoteFasterThanLocal {
                    what,
                    remote,
                    local,
                });
            }
        }
        Ok(())
    }

    /// Cores per socket for a *symmetric* machine with `num_cores` cores (the
    /// last socket may be short when the counts do not divide evenly). On an
    /// asymmetric layout this returns the widest declared block.
    pub fn cores_per_socket(&self, num_cores: usize) -> usize {
        if self.core_blocks.is_empty() {
            num_cores.div_ceil(self.num_sockets)
        } else {
            self.core_blocks.iter().copied().max().unwrap_or(1)
        }
    }

    /// The contiguous `(first_core, len)` block each socket owns on a machine
    /// with `num_cores` cores: equal blocks for the symmetric default,
    /// the declared blocks for an asymmetric layout (clamped to the cores that
    /// exist, with any spill-over landing on the last socket).
    fn socket_blocks(&self, num_cores: usize) -> Vec<(usize, usize)> {
        let mut blocks = Vec::with_capacity(self.num_sockets);
        if self.core_blocks.is_empty() {
            let cps = num_cores.div_ceil(self.num_sockets);
            for socket in 0..self.num_sockets {
                let start = (socket * cps).min(num_cores);
                let len = cps.min(num_cores - start);
                blocks.push((start, len));
            }
        } else {
            let mut start = 0;
            for (socket, &declared) in self.core_blocks.iter().enumerate() {
                let last = socket + 1 == self.num_sockets;
                let len = if last {
                    num_cores - start.min(num_cores)
                } else {
                    declared.min(num_cores - start.min(num_cores))
                };
                blocks.push((start.min(num_cores), len));
                start += declared;
            }
        }
        blocks
    }

    /// The socket a core belongs to: cores fill sockets in contiguous blocks
    /// (cores `0..cps` on socket 0, `cps..2·cps` on socket 1, … for the
    /// symmetric default; the declared blocks for an asymmetric layout, with
    /// cores past the declared layout spilling onto the last socket).
    pub fn socket_of(&self, core: usize, num_cores: usize) -> usize {
        if self.core_blocks.is_empty() {
            return core / self.cores_per_socket(num_cores);
        }
        let mut end = 0;
        for (socket, &block) in self.core_blocks.iter().enumerate() {
            end += block;
            if core < end {
                return socket;
            }
        }
        self.num_sockets - 1
    }

    /// The socket whose DRAM a line is homed on: lines interleave over the
    /// sockets at cache-line granularity, the common BIOS default.
    pub fn home_socket(&self, line_addr: Addr) -> usize {
        ((line_of(line_addr) / crate::addr::CACHE_LINE_SIZE) % self.num_sockets as u64) as usize
    }

    /// The core a thread runs on under `placement`. `Packed` is the
    /// pre-topology mapping (`tid % num_cores`); `RoundRobin` alternates
    /// sockets so consecutive threads land across the interconnect. On a
    /// single-socket topology both are identical.
    pub fn place_thread(&self, tid: usize, num_cores: usize, placement: ThreadPlacement) -> usize {
        match placement {
            ThreadPlacement::Packed => tid % num_cores,
            ThreadPlacement::RoundRobin => {
                // Enumerate cores socket-alternating: position p visits the
                // (p / sockets)-th core of socket (p % sockets), skipping
                // positions past the end of a short (or thin, for asymmetric
                // layouts) socket's block.
                let blocks = self.socket_blocks(num_cores);
                let deepest = blocks.iter().map(|&(_, len)| len).max().unwrap_or(0);
                let mut order = Vec::with_capacity(num_cores);
                for pos in 0..deepest {
                    for &(start, len) in &blocks {
                        if pos < len {
                            order.push(start + pos);
                        }
                    }
                }
                order[tid % num_cores]
            }
        }
    }

    /// The core → socket table of a machine with `num_cores` cores: entry `c`
    /// is [`Topology::socket_of`]`(c, num_cores)`. The machine builds it once
    /// and resolves every access against it, so the access path divides
    /// nothing.
    pub(crate) fn socket_table(&self, num_cores: usize) -> Vec<u32> {
        (0..num_cores)
            .map(|core| self.socket_of(core, num_cores) as u32)
            .collect()
    }

    /// Resolve a directory outcome to its socket-aware class for an access by
    /// `core` to `line_addr` on a machine with `num_cores` cores.
    ///
    /// * HITMs are local when the previous owner shares the accessor's socket.
    /// * LLC hits are local when any prior holder of the line (other than the
    ///   accessor) is on the accessor's socket.
    /// * DRAM misses are local when the line's home socket is the accessor's.
    ///
    /// On a single-socket topology every access resolves to its local class.
    pub fn resolve(
        &self,
        outcome: &AccessOutcome,
        core: usize,
        num_cores: usize,
        line_addr: Addr,
    ) -> ResolvedClass {
        self.resolve_by(outcome, core, line_addr, |c| self.socket_of(c, num_cores))
    }

    /// [`Topology::resolve`] against a prebuilt [`Topology::socket_table`]:
    /// the same classes, with every core → socket query a table load.
    #[inline]
    pub(crate) fn resolve_in(
        &self,
        outcome: &AccessOutcome,
        core: usize,
        sockets: &[u32],
        line_addr: Addr,
    ) -> ResolvedClass {
        self.resolve_by(outcome, core, line_addr, |c| sockets[c] as usize)
    }

    #[inline(always)]
    fn resolve_by(
        &self,
        outcome: &AccessOutcome,
        core: usize,
        line_addr: Addr,
        socket_of: impl Fn(usize) -> usize,
    ) -> ResolvedClass {
        if self.num_sockets <= 1 {
            return match outcome.class {
                AccessClass::L1Hit => ResolvedClass::L1Hit,
                AccessClass::LlcHit => ResolvedClass::LlcLocal,
                AccessClass::Hitm => ResolvedClass::HitmLocal,
                AccessClass::Dram => ResolvedClass::DramLocal,
            };
        }
        match outcome.class {
            AccessClass::L1Hit => ResolvedClass::L1Hit,
            AccessClass::Hitm => {
                #[expect(
                    clippy::expect_used,
                    reason = "the coherence directory only reports HITM when a previous owner exists"
                )]
                let owner = outcome
                    .previous_owner
                    .expect("HITM outcomes carry their previous owner");
                if socket_of(owner) == socket_of(core) {
                    ResolvedClass::HitmLocal
                } else {
                    ResolvedClass::HitmRemote
                }
            }
            AccessClass::LlcHit => {
                let socket = socket_of(core);
                let mut holders = outcome.sharers & !(1u64 << core);
                let mut local = false;
                while holders != 0 {
                    let holder = holders.trailing_zeros() as usize;
                    holders &= holders - 1;
                    if socket_of(holder) == socket {
                        local = true;
                        break;
                    }
                }
                if local {
                    ResolvedClass::LlcLocal
                } else {
                    ResolvedClass::LlcRemote
                }
            }
            AccessClass::Dram => {
                if self.home_socket(line_addr) == socket_of(core) {
                    ResolvedClass::DramLocal
                } else {
                    ResolvedClass::DramRemote
                }
            }
        }
    }

    /// The cycle cost of a resolved class: local classes from the base model,
    /// remote classes from this topology's [`SocketLatency`] table.
    #[inline]
    pub fn cost(&self, class: ResolvedClass, base: &LatencyModel) -> u64 {
        match class {
            ResolvedClass::L1Hit => base.l1_hit,
            ResolvedClass::LlcLocal => base.llc_hit,
            ResolvedClass::LlcRemote => self.remote.remote_llc,
            ResolvedClass::HitmLocal => base.hitm,
            ResolvedClass::HitmRemote => self.remote.remote_hitm,
            ResolvedClass::DramLocal => base.dram,
            ResolvedClass::DramRemote => self.remote.remote_dram,
        }
    }
}

/// The named preset topologies — the axis the bench layer sweeps and the
/// `experiments --topology` flag names. `Copy + Ord + Hash`, so it can key a
/// grid cell alongside the workload and tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum TopologySpec {
    /// The paper's single-socket machine (the default; byte-identical to the
    /// pre-topology flat cost model).
    #[default]
    Flat,
    /// Two sockets, 4 cores each.
    DualSocket,
    /// Four sockets, 4 cores each.
    QuadSocket,
    /// Eight sockets, 4 cores each (32 cores).
    OctoSocket,
}

impl TopologySpec {
    /// Every preset, in sweep order.
    pub const ALL: [TopologySpec; 4] = [
        TopologySpec::Flat,
        TopologySpec::DualSocket,
        TopologySpec::QuadSocket,
        TopologySpec::OctoSocket,
    ];

    /// The stable key (`flat`, `2s`, `4s`, `8s`) used in CLI flags and
    /// cell names.
    pub fn key(&self) -> &'static str {
        match self {
            TopologySpec::Flat => "flat",
            TopologySpec::DualSocket => "2s",
            TopologySpec::QuadSocket => "4s",
            TopologySpec::OctoSocket => "8s",
        }
    }

    /// Parse a key as accepted by `experiments --topology`.
    pub fn parse(s: &str) -> Option<TopologySpec> {
        match s {
            "flat" => Some(TopologySpec::Flat),
            "2s" => Some(TopologySpec::DualSocket),
            "4s" => Some(TopologySpec::QuadSocket),
            "8s" => Some(TopologySpec::OctoSocket),
            _ => None,
        }
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        match self {
            TopologySpec::Flat => 1,
            TopologySpec::DualSocket => 2,
            TopologySpec::QuadSocket => 4,
            TopologySpec::OctoSocket => 8,
        }
    }

    /// Resolve the full [`Topology`] model.
    pub fn topology(&self) -> Topology {
        match self {
            TopologySpec::Flat => Topology::single_socket(),
            TopologySpec::DualSocket => Topology::dual_socket(),
            TopologySpec::QuadSocket => Topology::quad_socket(),
            TopologySpec::OctoSocket => Topology::octo_socket(),
        }
    }

    /// Cores on this preset: the paper's 4 cores per socket.
    pub fn num_cores(&self) -> usize {
        4 * self.sockets()
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::CoherenceDirectory;

    #[test]
    fn presets_validate_against_the_default_model() {
        let base = LatencyModel::default();
        for spec in TopologySpec::ALL {
            spec.topology().validate(&base).unwrap();
        }
    }

    #[test]
    fn validation_rejects_zero_sockets_and_inverted_remote_latencies() {
        let base = LatencyModel::default();
        let t = Topology::new("bad", 0, Topology::dual_socket_remote());
        assert_eq!(t.validate(&base), Err(TopologyError::NoSockets));

        let t = Topology::new(
            "bad",
            2,
            SocketLatency {
                remote_hitm: 10, // < hitm (90)
                remote_llc: 100,
                remote_dram: 310,
            },
        );
        assert_eq!(
            t.validate(&base),
            Err(TopologyError::RemoteFasterThanLocal {
                what: "remote_hitm",
                remote: 10,
                local: 90,
            })
        );

        // An invalid base model surfaces through the topology check too.
        let zero_freq = LatencyModel {
            freq_hz: 0,
            ..LatencyModel::default()
        };
        assert!(matches!(
            Topology::single_socket().validate(&zero_freq),
            Err(TopologyError::Latency(LatencyError::ZeroFrequency))
        ));
    }

    #[test]
    fn single_socket_costs_equal_the_base_model_for_every_class() {
        // The byte-identity contract: on the default topology, every local
        // class is priced exactly as the pre-topology flat model, and no
        // remote class is ever produced.
        let base = LatencyModel::default();
        let t = Topology::single_socket();
        assert_eq!(t.cost(ResolvedClass::L1Hit, &base), base.l1_hit);
        assert_eq!(t.cost(ResolvedClass::LlcLocal, &base), base.llc_hit);
        assert_eq!(t.cost(ResolvedClass::HitmLocal, &base), base.hitm);
        assert_eq!(t.cost(ResolvedClass::DramLocal, &base), base.dram);
        let mut d = CoherenceDirectory::new(4);
        d.access(0, 0x1000, true);
        let o = d.access(3, 0x1000, false); // HITM
        assert_eq!(t.resolve(&o, 3, 4, 0x1000), ResolvedClass::HitmLocal);
        let o = d.access(2, 0x2000, false); // cold miss
        assert_eq!(t.resolve(&o, 2, 4, 0x2000), ResolvedClass::DramLocal);
    }

    #[test]
    fn socket_mapping_is_contiguous_blocks() {
        let t = Topology::dual_socket();
        assert_eq!(t.cores_per_socket(8), 4);
        for core in 0..4 {
            assert_eq!(t.socket_of(core, 8), 0);
        }
        for core in 4..8 {
            assert_eq!(t.socket_of(core, 8), 1);
        }
        // Uneven split: the last socket is short.
        assert_eq!(t.cores_per_socket(5), 3);
        assert_eq!(t.socket_of(2, 5), 0);
        assert_eq!(t.socket_of(3, 5), 1);
    }

    #[test]
    fn hitm_resolution_splits_on_the_owner_socket() {
        let t = Topology::dual_socket();
        let mut d = CoherenceDirectory::new(8);
        d.access(0, 0x40, true); // core 0 (socket 0) owns the line
        let o = d.access(1, 0x40, true); // core 1, same socket
        assert_eq!(t.resolve(&o, 1, 8, 0x40), ResolvedClass::HitmLocal);
        let o = d.access(5, 0x40, true); // core 5, socket 1
        assert_eq!(t.resolve(&o, 5, 8, 0x40), ResolvedClass::HitmRemote);
    }

    #[test]
    fn llc_resolution_checks_for_an_on_socket_holder() {
        let t = Topology::dual_socket();
        let mut d = CoherenceDirectory::new(8);
        // Core 0 (socket 0) reads; core 5 (socket 1) reads: no socket-1 holder
        // besides itself ⇒ the line comes across the interconnect.
        d.access(0, 0x80, false);
        let o = d.access(5, 0x80, false);
        assert_eq!(o.class, AccessClass::LlcHit);
        assert_eq!(t.resolve(&o, 5, 8, 0x80), ResolvedClass::LlcRemote);
        // Core 6 (socket 1) reads next: core 5 already holds it on-socket.
        let o = d.access(6, 0x80, false);
        assert_eq!(t.resolve(&o, 6, 8, 0x80), ResolvedClass::LlcLocal);
    }

    #[test]
    fn dram_homes_interleave_by_line() {
        let t = Topology::dual_socket();
        assert_eq!(t.home_socket(0x0), 0);
        assert_eq!(t.home_socket(0x40), 1);
        assert_eq!(t.home_socket(0x80), 0);
        // Addresses within one line share a home.
        assert_eq!(t.home_socket(0x47), 1);
        let mut d = CoherenceDirectory::new(8);
        let o = d.access(0, 0x0, false); // home 0, accessor socket 0
        assert_eq!(t.resolve(&o, 0, 8, 0x0), ResolvedClass::DramLocal);
        let o = d.access(0, 0x40, false); // home 1, accessor socket 0
        assert_eq!(t.resolve(&o, 0, 8, 0x40), ResolvedClass::DramRemote);
    }

    #[test]
    fn placement_packed_matches_the_pre_topology_mapping() {
        let t = Topology::dual_socket();
        for tid in 0..16 {
            assert_eq!(t.place_thread(tid, 8, ThreadPlacement::Packed), tid % 8);
        }
    }

    #[test]
    fn placement_round_robin_alternates_sockets() {
        let t = Topology::dual_socket();
        let cores: Vec<usize> = (0..8)
            .map(|tid| t.place_thread(tid, 8, ThreadPlacement::RoundRobin))
            .collect();
        assert_eq!(cores, vec![0, 4, 1, 5, 2, 6, 3, 7]);
        let sockets: Vec<usize> = cores.iter().map(|&c| t.socket_of(c, 8)).collect();
        assert_eq!(sockets, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        // On one socket, round-robin degenerates to the packed mapping.
        let flat = Topology::single_socket();
        for tid in 0..8 {
            assert_eq!(
                flat.place_thread(tid, 4, ThreadPlacement::RoundRobin),
                tid % 4
            );
        }
    }

    #[test]
    fn spec_round_trips_keys_and_resolves() {
        for spec in TopologySpec::ALL {
            assert_eq!(TopologySpec::parse(spec.key()), Some(spec));
            assert_eq!(spec.topology().num_sockets(), spec.sockets());
            assert_eq!(spec.num_cores(), 4 * spec.sockets());
            assert_eq!(spec.to_string(), spec.key());
        }
        assert_eq!(TopologySpec::parse("16s"), None);
        assert_eq!(
            TopologySpec::parse("32s"),
            None,
            "no preset exceeds 64 cores"
        );
        assert_eq!(TopologySpec::default(), TopologySpec::Flat);
    }

    #[test]
    fn asymmetric_layouts_map_cores_by_declared_blocks() {
        let t = Topology::asymmetric("fat0", vec![6, 2], Topology::dual_socket_remote());
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.core_blocks(), &[6, 2]);
        t.validate(&LatencyModel::default()).unwrap();
        for core in 0..6 {
            assert_eq!(t.socket_of(core, 8), 0);
        }
        for core in 6..8 {
            assert_eq!(t.socket_of(core, 8), 1);
        }
        // Spill-over cores land on the last socket.
        assert_eq!(t.socket_of(11, 12), 1);
        // Round-robin alternates sockets while both blocks have cores left,
        // then finishes the fat socket.
        let cores: Vec<usize> = (0..8)
            .map(|tid| t.place_thread(tid, 8, ThreadPlacement::RoundRobin))
            .collect();
        assert_eq!(cores, vec![0, 6, 1, 7, 2, 3, 4, 5]);
        // HITM resolution honours the asymmetric split: cores 5 and 6 are
        // adjacent but on different sockets.
        let mut d = CoherenceDirectory::new(8);
        d.access(5, 0x40, true);
        let o = d.access(6, 0x40, true);
        assert_eq!(t.resolve(&o, 6, 8, 0x40), ResolvedClass::HitmRemote);
        let o = d.access(7, 0x40, true);
        assert_eq!(t.resolve(&o, 7, 8, 0x40), ResolvedClass::HitmLocal);
    }

    /// The machine resolves against a prebuilt core → socket table; the table
    /// is `socket_of` for every core, and resolving against it gives the
    /// class `resolve` gives, on every preset and on uneven layouts (spilled
    /// and short machines included).
    #[test]
    fn socket_table_and_resolve_in_agree_with_socket_of_and_resolve() {
        let remote = Topology::dual_socket_remote();
        let mut cases: Vec<(Topology, usize)> = TopologySpec::ALL
            .into_iter()
            .map(|spec| (spec.topology(), spec.num_cores()))
            .collect();
        // Core counts that do not divide over the sockets, and the widest
        // machine the directory admits.
        cases.push((Topology::dual_socket(), 5));
        cases.push((Topology::octo_socket(), 30));
        cases.push((Topology::octo_socket(), 64));
        let fat = Topology::asymmetric("fat0", vec![6, 2], remote);
        let thin = Topology::asymmetric("thin-mid", vec![3, 1, 7, 2], remote);
        for cores in [8, 12, 5] {
            cases.push((fat.clone(), cores));
        }
        for cores in [13, 16, 9] {
            cases.push((thin.clone(), cores));
        }
        #[expect(
            clippy::disallowed_types,
            reason = "a membership count in a test; ResolvedClass has no order to key a BTreeSet by"
        )]
        let mut seen = std::collections::HashSet::new();
        for (t, num_cores) in cases {
            let what = format!("{} with {num_cores} cores", t.name());
            let table = t.socket_table(num_cores);
            assert_eq!(table.len(), num_cores, "{what}");
            for (core, &socket) in table.iter().enumerate() {
                assert_eq!(
                    socket as usize,
                    t.socket_of(core, num_cores),
                    "{what}: core {core}"
                );
            }
            // Every class through both resolvers: each core reads or writes
            // a few lines after every other core did, twice (the second
            // access hits its L1).
            let mut d = CoherenceDirectory::new(num_cores);
            for round in 0..3u64 {
                for core in 0..num_cores {
                    for line in [0, 0, 1, 1, 2, 2, 3, 3u64] {
                        let addr = 0x1000 + 64 * line;
                        let write = (core as u64 + line + round) % 3 == 1;
                        let o = d.access(core, addr, write);
                        let class = t.resolve_in(&o, core, &table, addr);
                        assert_eq!(
                            class,
                            t.resolve(&o, core, num_cores, addr),
                            "{what}: core {core}, line {line}, round {round}"
                        );
                        seen.insert(class);
                    }
                }
            }
        }
        assert_eq!(seen.len(), 7, "every resolved class was compared: {seen:?}");
    }

    #[test]
    fn asymmetric_validation_rejects_zero_core_blocks() {
        let t = Topology::asymmetric("bad", vec![4, 0, 4], Topology::dual_socket_remote());
        assert_eq!(
            t.validate(&LatencyModel::default()),
            Err(TopologyError::EmptySocket { socket: 1 })
        );
        assert_eq!(
            TopologyError::EmptySocket { socket: 1 }.to_string(),
            "socket 1 declares a zero-core block"
        );
    }

    #[test]
    fn octo_socket_preset_has_eight_sockets_and_dearer_remote_classes() {
        let t = Topology::octo_socket();
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(TopologySpec::OctoSocket.num_cores(), 32);
        t.validate(&LatencyModel::default()).unwrap();
        // Each hop up the preset ladder makes every remote class dearer.
        let quad = Topology::quad_socket().remote_latency();
        let octo = t.remote_latency();
        assert!(octo.remote_hitm > quad.remote_hitm);
        assert!(octo.remote_llc > quad.remote_llc);
        assert!(octo.remote_dram > quad.remote_dram);
    }
}
