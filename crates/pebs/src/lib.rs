//! # laser-pebs
//!
//! A model of the Haswell performance-monitoring facility LASER is built on:
//! the *Precise Event-Based Sampling* (PEBS) of
//! `MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM` events, plus the Linux kernel
//! driver the paper's system uses to configure the PMU and ship records to the
//! user-space detector.
//!
//! The crate has three layers:
//!
//! * [`record`] — the [`record::HitmRecord`] the driver delivers (PC, data
//!   address, originating core), i.e. a HITM event after the driver has
//!   stripped the register-file state.
//! * [`imprecision`] — the measured Haswell imprecision of Section 3.1 /
//!   Figure 3: load-triggered HITM records are mostly accurate (≈75 % correct
//!   data address, ≈40 % exact PC plus ≈30 % adjacent), store-triggered
//!   records are largely garbage, wrong addresses land almost entirely in
//!   unmapped memory, and wrong PCs stay inside the binary.
//! * [`pmu`] and [`driver`] — Sample-After-Value sampling into per-core PEBS
//!   buffers, buffer-full interrupts, and the overhead-charging driver that
//!   moves records into a file-like device the detector reads.
//! * [`channel`] — the bounded, double-buffered batch channel that feeds a
//!   concurrent detector stage, with backpressure when the consumer lags
//!   ([`channel::OverflowPolicy`]).
//!
//! ## Example
//!
//! ```
//! use laser_machine::{CoreId, HitmEvent, MemAccessKind, MemoryMap, Region, RegionKind};
//! use laser_pebs::imprecision::{ImprecisionModel, ImprecisionParams};
//! use laser_pebs::pmu::{Pmu, PmuConfig};
//!
//! let mut map = MemoryMap::new();
//! map.add(Region::new(0x40_0000, 0x50_0000, RegionKind::AppCode, "app"));
//! let model = ImprecisionModel::new(ImprecisionParams::perfect(), &map, (0x40_0000, 0x50_0000), 7);
//! let mut pmu = Pmu::new(PmuConfig { sav: 1, ..Default::default() }, model);
//! let event = HitmEvent {
//!     core: CoreId(0),
//!     pc: 0x40_0010,
//!     addr: 0x40_1000,
//!     size: 8,
//!     kind: MemAccessKind::Load,
//!     cycle: 100,
//! };
//! pmu.observe(&[event]);
//! let records = pmu.drain_all_buffers();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].pc, 0x40_0010);
//! ```

pub mod channel;
pub mod driver;
pub mod imprecision;
pub mod pmu;
pub mod record;

pub use channel::{OverflowPolicy, SendOutcome};
pub use driver::{Driver, DriverConfig, DriverStats};
pub use imprecision::{ImprecisionModel, ImprecisionParams};
pub use pmu::{Pmu, PmuConfig};
pub use record::HitmRecord;
